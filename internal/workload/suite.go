package workload

import (
	"fmt"
	"sort"
)

// KB and MB improve the readability of footprint literals.
const (
	KB = uint64(1) << 10
	MB = uint64(1) << 20
)

// SuiteKind distinguishes the two benchmark families.
type SuiteKind int

const (
	// Rodinia marks the OpenMP-style, barrier-synchronized family.
	Rodinia SuiteKind = iota
	// Parsec marks the pthread-style family with critical sections and
	// condition variables.
	Parsec
	// Synthetic marks the parameterized workload families (families.go):
	// distribution-driven stress programs built from the suite registry
	// rather than stand-ins for the paper's benchmark tables.
	Synthetic
)

func (k SuiteKind) String() string {
	switch k {
	case Rodinia:
		return "rodinia"
	case Synthetic:
		return "synthetic"
	default:
		return "parsec"
	}
}

// Benchmark is a named, buildable workload.
type Benchmark struct {
	Name  string
	Kind  SuiteKind
	Input string // the paper's Table II input tag, or a family parameter set
	// Family is the synthetic family name for registry-instantiated
	// benchmarks, empty for the fixed suite.
	Family string
	// Build instantiates the program with the given seed and block-size
	// scale factor in (0, 1].
	Build func(seed uint64, scale float64) *Program
}

// rodiniaBench assembles the canonical Rodinia structure: the main thread
// initializes, creates the worker pool, then all four threads iterate
// barrier-delimited parallel regions; the main thread finalizes and joins.
func rodiniaBench(name, input string, iters int, init Block,
	body func(tid, iter int) Block) Benchmark {
	return Benchmark{
		Name:  name,
		Kind:  Rodinia,
		Input: input,
		Build: func(seed uint64, scale float64) *Program {
			b := NewBuilder(name, 4, seed).SetScale(scale)
			b.Compute(0, init)
			b.CreateWorkers()
			bar := b.NewObj()
			all := b.AllThreads()
			for it := 0; it < iters; it++ {
				for _, t := range all {
					b.Compute(t, body(t, it))
				}
				b.Barrier(bar, all...)
			}
			b.Compute(0, scaled(init, 0.3))
			return b.Finish()
		},
	}
}

// scaled returns blk with its instruction count multiplied by f.
func scaled(blk Block, f float64) Block {
	blk.N = int(float64(blk.N) * f)
	if blk.N < 1 {
		blk.N = 1
	}
	return blk
}

// imbalance returns a per-thread work multiplier in [1-spread, 1+spread],
// deterministic in (tid, iter).
func imbalance(tid, iter int, spread float64) float64 {
	// Cheap hash to decorrelate thread and iteration.
	h := uint64(tid)*0x9E3779B9 + uint64(iter)*0x85EBCA6B
	h ^= h >> 13
	u := float64(h%1000) / 1000.0
	return 1 - spread + 2*spread*u
}

// rodiniaSuite returns the 16 Rodinia-like benchmarks (Tables II and V).
func rodiniaSuite() []Benchmark {
	return []Benchmark{
		// backprop: streaming neural-network layers; large footprint, high
		// MLP (the paper reports MLP up to 5.3 for backprop).
		rodiniaBench("backprop", "4,194,304", 6,
			Block{N: 9000, Mix: MixStream(), PrivateBytes: 8 * MB, SeqFrac: 0.75, DepMean: 10, SharedBytes: 2 * MB, SharedFrac: 0.15},
			func(tid, iter int) Block {
				return Block{N: 11000, Mix: MixStream(), PrivateBytes: 8 * MB, SeqFrac: 0.7,
					DepMean: 12, SharedBytes: 2 * MB, SharedFrac: 0.2, CodeID: 1}
			}),
		// bfs: irregular graph traversal; random accesses over a large
		// footprint, data-dependent branches, pointer chasing.
		rodiniaBench("bfs", "graph8M", 8,
			Block{N: 4000, Mix: MixInt(), PrivateBytes: 1 * MB, SeqFrac: 0.2},
			func(tid, iter int) Block {
				return Block{N: int(8000 * imbalance(tid, iter, 0.25)), Mix: MixInt(),
					PrivateBytes: 12 * MB, SeqFrac: 0.1, DepMean: 4, LoadChainFrac: 0.35,
					SharedBytes: 4 * MB, SharedFrac: 0.3, RandomFrac: 0.3, BranchBias: 0.85, CodeID: 2}
			}),
		// cfd: fp-heavy unstructured-grid solver; high ILP stress on the
		// base component.
		rodiniaBench("cfd", "fvcorr.domn.010K", 7,
			Block{N: 5000, Mix: MixFP(), PrivateBytes: 2 * MB},
			func(tid, iter int) Block {
				return Block{N: 12000, Mix: MixFP(), PrivateBytes: 3 * MB, SeqFrac: 0.55,
					DepMean: 3, SharedBytes: 1 * MB, SharedFrac: 0.1, CodeID: 3}
			}),
		// heartwall: image tracking; mixed mix, hot working set.
		rodiniaBench("heartwall", "test.avi 10", 6,
			Block{N: 5000, Mix: MixInt(), PrivateBytes: 1 * MB},
			func(tid, iter int) Block {
				return Block{N: int(9000 * imbalance(tid, iter, 0.15)), Mix: MixFP(),
					PrivateBytes: 2 * MB, HotBytes: 96 * KB, HotFrac: 0.6, SeqFrac: 0.4,
					DepMean: 6, CodeID: 4}
			}),
		// hotspot: 2D stencil; sequential sweeps, moderate sharing at tile
		// boundaries.
		rodiniaBench("hotspot", "16384 5", 5,
			Block{N: 4000, Mix: MixFP(), PrivateBytes: 2 * MB},
			func(tid, iter int) Block {
				return Block{N: 13000, Mix: MixFP(), PrivateBytes: 4 * MB, SeqFrac: 0.8,
					DepMean: 9, SharedBytes: 512 * KB, SharedFrac: 0.08, CodeID: 5}
			}),
		// kmeans: distance computations against shared read-mostly
		// centroids (positive interference in the LLC).
		rodiniaBench("kmeans", "kdd_cup", 6,
			Block{N: 5000, Mix: MixFP(), PrivateBytes: 4 * MB},
			func(tid, iter int) Block {
				return Block{N: 12000, Mix: MixFP(), PrivateBytes: 6 * MB, SeqFrac: 0.65,
					DepMean: 8, SharedBytes: 256 * KB, SharedFrac: 0.35, CodeID: 6}
			}),
		// lavaMD: n-body within cutoff boxes; fp-div heavy, tiny footprint,
		// compute bound.
		rodiniaBench("lavaMD", "10", 5,
			Block{N: 3000, Mix: MixFP(), PrivateBytes: 256 * KB},
			func(tid, iter int) Block {
				return Block{N: 14000, Mix: Mix{IntALU: 0.16, FPAdd: 0.22, FPMul: 0.24, FPDiv: 0.05, Load: 0.22, Store: 0.06, Branch: 0.05},
					PrivateBytes: 512 * KB, HotBytes: 64 * KB, HotFrac: 0.7, SeqFrac: 0.5, DepMean: 7, CodeID: 7}
			}),
		// leukocyte: cell tracking with a large code footprint (I-cache
		// component).
		rodiniaBench("leukocyte", "testfile.avi 5", 6,
			Block{N: 5000, Mix: MixFP(), PrivateBytes: 1 * MB},
			func(tid, iter int) Block {
				return Block{N: 11000, Mix: MixFP(), PrivateBytes: 2 * MB, SeqFrac: 0.5,
					DepMean: 6, CodeLines: 2048, CodeID: 8}
			}),
		// lud: LU decomposition; triangular work shrinking across
		// iterations and skewed across threads.
		rodiniaBench("lud", "2048.dat", 8,
			Block{N: 4000, Mix: MixFP(), PrivateBytes: 512 * KB},
			func(tid, iter int) Block {
				shrink := 1.0 - 0.09*float64(iter)
				return Block{N: int(10000 * shrink * imbalance(tid, iter, 0.3)), Mix: MixFP(),
					PrivateBytes: 1 * MB, SeqFrac: 0.6, DepMean: 5, SharedBytes: 256 * KB, SharedFrac: 0.15, CodeID: 9}
			}),
		// myocyte: mostly sequential ODE solver: the main thread dominates.
		rodiniaBench("myocyte", "100", 4,
			Block{N: 20000, Mix: MixFP(), PrivateBytes: 512 * KB, DepMean: 3},
			func(tid, iter int) Block {
				n := 3000
				if tid == 0 {
					n = 12000
				}
				return Block{N: n, Mix: MixFP(), PrivateBytes: 512 * KB, HotBytes: 32 * KB,
					HotFrac: 0.8, DepMean: 3, CodeID: 10}
			}),
		// nn: nearest neighbours over a huge streamed array; memory bound,
		// high MLP.
		rodiniaBench("nn", "4096k", 4,
			Block{N: 3000, Mix: MixStream(), PrivateBytes: 1 * MB},
			func(tid, iter int) Block {
				return Block{N: 16000, Mix: MixStream(), PrivateBytes: 16 * MB, SeqFrac: 0.85,
					DepMean: 14, CodeID: 11}
			}),
		// nw: Needleman-Wunsch wavefront; many barriers, dependent loads
		// (low MLP), varying parallelism along the anti-diagonals.
		rodiniaBench("nw", "16k x 16k", 12,
			Block{N: 3000, Mix: MixInt(), PrivateBytes: 1 * MB},
			func(tid, iter int) Block {
				wave := 1.0 - 0.06*float64(iter)
				return Block{N: int(5000 * wave * imbalance(tid, iter, 0.35)), Mix: MixInt(),
					PrivateBytes: 6 * MB, SeqFrac: 0.3, DepMean: 3, LoadChainFrac: 0.5,
					SharedBytes: 2 * MB, SharedFrac: 0.25, CodeID: 12}
			}),
		// particlefilter: resampling with data-dependent branches.
		rodiniaBench("particlefilter", "128 x 128 x 10", 6,
			Block{N: 4000, Mix: MixInt(), PrivateBytes: 1 * MB},
			func(tid, iter int) Block {
				return Block{N: int(9000 * imbalance(tid, iter, 0.2)), Mix: MixInt(),
					PrivateBytes: 2 * MB, SeqFrac: 0.35, DepMean: 5, RandomFrac: 0.4,
					BranchBias: 0.8, CodeID: 13}
			}),
		// pathfinder: dynamic programming over a wide grid; many cheap
		// barrier-delimited epochs (stresses error accumulation).
		rodiniaBench("pathfinder", "1M x 1k", 20,
			Block{N: 2000, Mix: MixInt(), PrivateBytes: 512 * KB},
			func(tid, iter int) Block {
				return Block{N: 3000, Mix: MixInt(), PrivateBytes: 2 * MB, SeqFrac: 0.7,
					DepMean: 7, SharedBytes: 256 * KB, SharedFrac: 0.1, CodeID: 14}
			}),
		// srad: speckle-reducing stencil; fp, balanced.
		rodiniaBench("srad", "2048", 6,
			Block{N: 4000, Mix: MixFP(), PrivateBytes: 2 * MB},
			func(tid, iter int) Block {
				return Block{N: 11000, Mix: MixFP(), PrivateBytes: 4 * MB, SeqFrac: 0.75,
					DepMean: 8, SharedBytes: 512 * KB, SharedFrac: 0.05, CodeID: 15}
			}),
		// streamcluster (Rodinia flavour): many barriers and a hot shared
		// read-mostly block of cluster centres.
		rodiniaBench("streamcluster", "256k", 16,
			Block{N: 3000, Mix: MixInt(), PrivateBytes: 1 * MB},
			func(tid, iter int) Block {
				return Block{N: int(4500 * imbalance(tid, iter, 0.2)), Mix: MixStream(),
					PrivateBytes: 4 * MB, SeqFrac: 0.55, DepMean: 8,
					SharedBytes: 128 * KB, SharedFrac: 0.4, CodeID: 16}
			}),
	}
}

// parsecSuite returns the 10 Parsec-like benchmarks. Thread counts follow
// the paper's Figure 6 groups: the "balanced pool" group runs a main thread
// plus four workers (the main thread only creates and joins), the other
// groups run the main thread plus three workers.
func parsecSuite() []Benchmark {
	return []Benchmark{
		parsecBlackscholes(),
		parsecBodytrack(),
		parsecCanneal(),
		parsecFacesim(),
		parsecFluidanimate(),
		parsecFreqmine(),
		parsecRaytrace(),
		parsecStreamcluster(),
		parsecSwaptions(),
		parsecVips(),
	}
}

// parsecPool is the Figure 6 group-1 shape: main creates N workers, does no
// work itself, each worker runs one big block (plus optional per-worker sync
// structure added by extend), and main joins.
func parsecPool(name, input string, workers int,
	extend func(b *Builder, worker func(tid int))) Benchmark {
	return Benchmark{
		Name:  name,
		Kind:  Parsec,
		Input: input,
		Build: func(seed uint64, scale float64) *Program {
			b := NewBuilder(name, workers+1, seed).SetScale(scale)
			b.Compute(0, Block{N: 500, Mix: MixInt(), PrivateBytes: 64 * KB})
			b.CreateWorkers()
			extend(b, nil)
			return b.Finish()
		},
	}
}

func parsecBlackscholes() Benchmark {
	return parsecPool("blackscholes", "medium", 4, func(b *Builder, _ func(int)) {
		for _, t := range b.Workers() {
			b.Compute(t, Block{N: 60000, Mix: MixFP(), PrivateBytes: 2 * MB, SeqFrac: 0.8,
				DepMean: 9, CodeID: 20})
		}
	})
}

func parsecSwaptions() Benchmark {
	return parsecPool("swaptions", "medium", 4, func(b *Builder, _ func(int)) {
		for _, t := range b.Workers() {
			b.Compute(t, Block{N: int(58000 * imbalance(t, 0, 0.05)), Mix: MixFP(),
				PrivateBytes: 512 * KB, HotBytes: 64 * KB, HotFrac: 0.7, DepMean: 5, CodeID: 21})
		}
	})
}

func parsecCanneal() Benchmark {
	// canneal: simulated annealing over a huge netlist — pointer chasing,
	// very large footprint, 4 critical sections and 64 barriers (Table III).
	return Benchmark{
		Name: "canneal", Kind: Parsec, Input: "medium",
		Build: func(seed uint64, scale float64) *Program {
			b := NewBuilder("canneal", 5, seed).SetScale(scale)
			b.Compute(0, Block{N: 800, Mix: MixInt(), PrivateBytes: 64 * KB})
			b.CreateWorkers()
			lock := b.NewObj()
			bar := b.NewObj()
			workers := b.Workers()
			rounds := 16
			for r := 0; r < rounds; r++ {
				for _, t := range workers {
					b.Compute(t, Block{N: 3200, Mix: MixInt(), PrivateBytes: 2 * MB, SeqFrac: 0.1,
						DepMean: 4, LoadChainFrac: 0.45, SharedBytes: 24 * MB, SharedFrac: 0.6,
						RandomFrac: 0.25, BranchBias: 0.85, CodeID: 22})
				}
				b.Barrier(bar, workers...)
			}
			// The temperature-update critical section runs once per worker.
			for _, t := range workers {
				b.Critical(t, lock, Block{N: 150, Mix: MixInt(), PrivateBytes: 16 * KB, CodeID: 23})
			}
			return b.Finish()
		},
	}
}

func parsecFluidanimate() Benchmark {
	// fluidanimate: frame loop with a barrier per phase and very many fine
	// critical sections on per-cell locks (Table III: CS-dominated).
	return Benchmark{
		Name: "fluidanimate", Kind: Parsec, Input: "medium",
		Build: func(seed uint64, scale float64) *Program {
			b := NewBuilder("fluidanimate", 5, seed).SetScale(scale)
			b.Compute(0, Block{N: 600, Mix: MixInt(), PrivateBytes: 64 * KB})
			b.CreateWorkers()
			workers := b.Workers()
			bar := b.NewObj()
			nLocks := 32
			locks := make([]uint32, nLocks)
			for i := range locks {
				locks[i] = b.NewObj()
			}
			frames := 5
			csPerFrame := 60 // per worker per frame
			for f := 0; f < frames; f++ {
				for _, t := range workers {
					b.Compute(t, Block{N: 4000, Mix: MixFP(), PrivateBytes: 3 * MB, SeqFrac: 0.5,
						DepMean: 6, SharedBytes: 4 * MB, SharedFrac: 0.25, CodeID: 24})
					for c := 0; c < csPerFrame; c++ {
						lk := locks[(t*csPerFrame+c+f)%nLocks]
						b.Critical(t, lk, Block{N: 40, Mix: MixFP(), PrivateBytes: 16 * KB,
							SharedBytes: 256 * KB, SharedFrac: 0.7, CodeID: 25})
						b.Compute(t, Block{N: 300, Mix: MixFP(), PrivateBytes: 1 * MB, CodeID: 26})
					}
				}
				b.Barrier(bar, workers...)
			}
			return b.Finish()
		},
	}
}

func parsecRaytrace() Benchmark {
	// raytrace: balanced workers, a handful of critical sections on the
	// work queue and a few condvar events.
	return Benchmark{
		Name: "raytrace", Kind: Parsec, Input: "medium",
		Build: func(seed uint64, scale float64) *Program {
			b := NewBuilder("raytrace", 5, seed).SetScale(scale)
			b.Compute(0, Block{N: 700, Mix: MixInt(), PrivateBytes: 64 * KB})
			b.CreateWorkers()
			workers := b.Workers()
			lock := b.NewObj()
			cond := b.NewObj()
			// Main produces the frame (one readiness token per worker);
			// workers wait for it.
			for range workers {
				b.Produce(0, cond)
			}
			for _, t := range workers {
				b.Consume(t, cond)
			}
			tiles := 3
			for tile := 0; tile < tiles; tile++ {
				for _, t := range workers {
					b.Critical(t, lock, Block{N: 60, Mix: MixInt(), PrivateBytes: 16 * KB, CodeID: 27})
					b.Compute(t, Block{N: int(15000 * imbalance(t, tile, 0.1)), Mix: MixFP(),
						PrivateBytes: 4 * MB, HotBytes: 512 * KB, HotFrac: 0.5, SeqFrac: 0.3,
						DepMean: 5, LoadChainFrac: 0.25, SharedBytes: 8 * MB, SharedFrac: 0.35, CodeID: 28})
				}
			}
			return b.Finish()
		},
	}
}

func parsecBodytrack() Benchmark {
	// bodytrack: group-3 shape — main + 3 workers, main does bookkeeping
	// only; critical sections dominate with periodic barriers and condvar
	// frame hand-off (Table III: 6700 CS, 98 barriers, 25 cond).
	return Benchmark{
		Name: "bodytrack", Kind: Parsec, Input: "medium",
		Build: func(seed uint64, scale float64) *Program {
			b := NewBuilder("bodytrack", 4, seed).SetScale(scale)
			b.Compute(0, Block{N: 800, Mix: MixInt(), PrivateBytes: 128 * KB})
			b.CreateWorkers()
			workers := b.Workers()
			qlock := b.NewObj()
			bar := b.NewObj()
			frameReady := b.NewObj()
			frames := 6
			for f := 0; f < frames; f++ {
				// Main prepares the frame and signals the workers.
				b.Compute(0, Block{N: 500, Mix: MixInt(), PrivateBytes: 256 * KB, CodeID: 29})
				for range workers {
					b.Produce(0, frameReady)
				}
				for _, t := range workers {
					b.Consume(t, frameReady)
					for stage := 0; stage < 2; stage++ {
						for task := 0; task < 28; task++ {
							b.Critical(t, qlock, Block{N: 30, Mix: MixInt(), PrivateBytes: 16 * KB, CodeID: 30})
							b.Compute(t, Block{N: int(220 * imbalance(t, f*100+task, 0.25)), Mix: MixFP(),
								PrivateBytes: 1 * MB, SeqFrac: 0.4, DepMean: 6,
								SharedBytes: 2 * MB, SharedFrac: 0.2, CodeID: 31})
						}
						b.Barrier(bar, workers...)
					}
				}
			}
			return b.Finish()
		},
	}
}

func parsecStreamcluster() Benchmark {
	// streamcluster (Parsec flavour): heavily barrier-synchronized
	// (Table III: 13003 barriers) with a few critical sections and condvars.
	// Named apart from Rodinia's streamcluster: benchmarks are resolved and
	// cached by name, so a shared name would hide one of the two programs.
	return Benchmark{
		Name: "streamcluster-parsec", Kind: Parsec, Input: "medium",
		Build: func(seed uint64, scale float64) *Program {
			b := NewBuilder("streamcluster-parsec", 4, seed).SetScale(scale)
			b.Compute(0, Block{N: 500, Mix: MixInt(), PrivateBytes: 64 * KB})
			b.CreateWorkers()
			workers := b.Workers()
			bar := b.NewObj()
			lock := b.NewObj()
			cond := b.NewObj()
			for range workers {
				b.Produce(0, cond)
			}
			for _, t := range workers {
				b.Consume(t, cond)
			}
			rounds := 220
			for r := 0; r < rounds; r++ {
				for _, t := range workers {
					b.Compute(t, Block{N: int(900 * imbalance(t, r, 0.15)), Mix: MixStream(),
						PrivateBytes: 3 * MB, SeqFrac: 0.6, DepMean: 8,
						SharedBytes: 256 * KB, SharedFrac: 0.35, CodeID: 32})
				}
				b.Barrier(bar, workers...)
				if r%40 == 0 {
					for _, t := range workers {
						b.Critical(t, lock, Block{N: 80, Mix: MixInt(), PrivateBytes: 16 * KB, CodeID: 33})
					}
				}
			}
			return b.Finish()
		},
	}
}

func parsecFacesim() Benchmark {
	// facesim: group-2 shape — main and 3 workers all work; producer-
	// consumer condvars (wait and broadcast markers) plus many critical
	// sections (Table III: 10472 CS, 1232 cond).
	return Benchmark{
		Name: "facesim", Kind: Parsec, Input: "medium",
		Build: func(seed uint64, scale float64) *Program {
			b := NewBuilder("facesim", 4, seed).SetScale(scale)
			b.Compute(0, Block{N: 1500, Mix: MixFP(), PrivateBytes: 1 * MB})
			b.CreateWorkers()
			workers := b.Workers()
			qlock := b.NewObj()
			taskCond := b.NewObj()
			doneCond := b.NewObj()
			frames := 8
			tasksPerFrame := 9 // divisible by 3 workers
			for f := 0; f < frames; f++ {
				// Main does real physics work, then produces tasks.
				b.Compute(0, Block{N: 5200, Mix: MixFP(), PrivateBytes: 3 * MB, SeqFrac: 0.5,
					DepMean: 5, SharedBytes: 2 * MB, SharedFrac: 0.2, CodeID: 34})
				for i := 0; i < tasksPerFrame; i++ {
					b.Produce(0, taskCond)
				}
				for _, t := range workers {
					for i := 0; i < tasksPerFrame/len(workers); i++ {
						b.Consume(t, taskCond)
						b.Critical(t, qlock, Block{N: 40, Mix: MixInt(), PrivateBytes: 16 * KB, CodeID: 35})
						b.Compute(t, Block{N: int(3800 * imbalance(t, f*10+i, 0.15)), Mix: MixFP(),
							PrivateBytes: 2 * MB, SeqFrac: 0.45, DepMean: 6,
							SharedBytes: 4 * MB, SharedFrac: 0.3, CodeID: 36})
						b.Produce(t, doneCond)
					}
				}
				for i := 0; i < tasksPerFrame; i++ {
					b.Consume(0, doneCond)
				}
			}
			return b.Finish()
		},
	}
}

func parsecVips() Benchmark {
	// vips: group-3 shape — image pipeline, main only orchestrates;
	// producer-consumer condvars and work-queue critical sections.
	return Benchmark{
		Name: "vips", Kind: Parsec, Input: "medium",
		Build: func(seed uint64, scale float64) *Program {
			b := NewBuilder("vips", 4, seed).SetScale(scale)
			b.Compute(0, Block{N: 900, Mix: MixInt(), PrivateBytes: 256 * KB})
			b.CreateWorkers()
			workers := b.Workers()
			qlock := b.NewObj()
			workCond := b.NewObj()
			strips := 45 // divisible by 3 workers
			for s := 0; s < strips; s++ {
				b.Compute(0, Block{N: 60, Mix: MixInt(), PrivateBytes: 64 * KB, CodeID: 37})
				b.Produce(0, workCond)
			}
			for _, t := range workers {
				for s := 0; s < strips/len(workers); s++ {
					b.Consume(t, workCond)
					b.Critical(t, qlock, Block{N: 50, Mix: MixInt(), PrivateBytes: 16 * KB, CodeID: 38})
					b.Compute(t, Block{N: int(3400 * imbalance(t, s, 0.1)), Mix: MixStream(),
						PrivateBytes: 4 * MB, SeqFrac: 0.75, DepMean: 9,
						SharedBytes: 1 * MB, SharedFrac: 0.1, CodeID: 39})
				}
			}
			return b.Finish()
		},
	}
}

func parsecFreqmine() Benchmark {
	// freqmine: group-2 shape — the main thread is the bottleneck: it mines
	// the tree while workers handle parallel sections (join-only sync).
	return Benchmark{
		Name: "freqmine", Kind: Parsec, Input: "medium",
		Build: func(seed uint64, scale float64) *Program {
			b := NewBuilder("freqmine", 4, seed).SetScale(scale)
			b.Compute(0, Block{N: 2000, Mix: MixInt(), PrivateBytes: 512 * KB})
			b.CreateWorkers()
			// Main performs substantial sequential and parallel work.
			b.Compute(0, Block{N: 55000, Mix: MixInt(), PrivateBytes: 6 * MB, SeqFrac: 0.25,
				DepMean: 4, LoadChainFrac: 0.3, SharedBytes: 4 * MB, SharedFrac: 0.3, CodeID: 40})
			for _, t := range b.Workers() {
				b.Compute(t, Block{N: int(30000 * imbalance(t, 0, 0.1)), Mix: MixInt(),
					PrivateBytes: 3 * MB, SeqFrac: 0.3, DepMean: 5,
					SharedBytes: 4 * MB, SharedFrac: 0.25, CodeID: 41})
			}
			return b.Finish()
		},
	}
}

// Suite returns the full 26-benchmark suite: 16 Rodinia-like then 10
// Parsec-like, in the paper's reporting order.
func Suite() []Benchmark {
	out := append(rodiniaSuite(), parsecSuite()...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return false // preserve declaration order within a family
	})
	return out
}

// ByName returns the named benchmark or an error listing the valid names.
func ByName(name string) (Benchmark, error) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, nil
		}
	}
	names := make([]string, 0, 26)
	for _, b := range Suite() {
		names = append(names, b.Name)
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q (have: %v)", name, names)
}

// BarrierLoop builds the Table I micro-benchmark: threads execute iters
// equal-duration iterations of instrPerIter instructions, synchronizing at a
// barrier after every iteration. All threads (including the main thread)
// participate.
func BarrierLoop(threads, iters, instrPerIter int, seed uint64) *Program {
	b := NewBuilder(fmt.Sprintf("barrier-loop-%dt", threads), threads, seed)
	b.CreateWorkers()
	bar := b.NewObj()
	all := b.AllThreads()
	for i := 0; i < iters; i++ {
		for _, t := range all {
			b.Compute(t, Block{N: instrPerIter, Mix: MixInt(), PrivateBytes: 32 * KB, CodeID: 99})
		}
		b.Barrier(bar, all...)
	}
	return b.Finish()
}
