package interval

import (
	"rppm/internal/arch"
	"rppm/internal/ilp"
	"rppm/internal/mlp"
	"rppm/internal/profiler"
)

// Diagnosis exposes the intermediate model quantities behind a PredictEpoch
// call, for calibration tooling and tests.
type Diagnosis struct {
	Deff     float64
	Cres     float64
	MissRate struct {
		L1D, L2, LLC float64
		L1I          float64
	}
	MLP        float64
	MLPMisses  int
	BranchMiss float64
}

// Diagnose recomputes the internals of PredictEpoch for inspection, from
// the same memoized StatStack models.
func Diagnose(ep *profiler.Epoch, cfg *arch.Config) Diagnosis {
	var d Diagnosis
	res := ilp.Analyze(ep.Windows, ep.Mix, cfg)
	d.Deff = res.Deff
	d.Cres = res.Cres
	d.BranchMiss = ep.Branch.MissRate(cfg.BPredBytes)
	if ep.ILineAccesses > 0 {
		d.MissRate.L1I = ep.Models().Instr.MissRate(cfg.L1I.Lines())
	}
	if ep.Loads > 0 {
		models := ep.Models()
		pm, gm := models.Private, models.Global
		d.MissRate.L1D = pm.MissRate(cfg.L1D.Lines())
		d.MissRate.L2 = minF(pm.MissRate(cfg.L2.Lines()), d.MissRate.L1D)
		d.MissRate.LLC = minF(gm.MissRate(cfg.LLC.Lines()), d.MissRate.L2)
		d.MLP, d.MLPMisses = mlp.Compute(ep.Windows, cfg.ROBSize, cfg.MSHRs,
			gm.CriticalDistance(cfg.LLC.Lines()))
	} else {
		d.MLP = 1
	}
	return d
}
