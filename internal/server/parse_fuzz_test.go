package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"testing"

	"rppm/internal/workload"
)

// FuzzParseRequests feeds arbitrary query strings and JSON bodies to the
// predict and sweep request parsers. Neither may panic; every rejection
// must be a 400; and every accepted request must be one the handlers can
// execute: scale in (0, 1], a resolvable bench (and, for predict, config),
// and for sweeps 1 ≤ configs ≤ MaxSweepConfigs. A sweep body naming a
// "batch" field is rejected: the batch width is not part of the request.
func FuzzParseRequests(f *testing.F) {
	f.Add("bench=kmeans&config=big&seed=3&scale=0.05&baselines=1", []byte(`{"bench":"kmeans","config":"small","scale":0.05}`))
	f.Add("bench=kmeans&configs=4&scale=1", []byte(`{"bench":"kmeans","configs":4,"scale":0.1}`))
	f.Add("bench=nosuch&scale=NaN&configs=-1", []byte(`{"bench":"kmeans","configs":100000000,"scale":2}`))
	f.Add("bench=kmeans&seed=-1&configs=x", []byte(`{"bench":"kmeans","unknown":1}`))
	f.Add("", []byte(`not json`))
	f.Add("bench=kmeans&configs=4&batch=2&scale=0.05", []byte(`{"bench":"kmeans","configs":4,"batch":2,"scale":0.1}`))
	f.Fuzz(func(t *testing.T, query string, body []byte) {
		var fields map[string]json.RawMessage
		hasBatch := false
		if json.Unmarshal(body, &fields) == nil {
			_, hasBatch = fields["batch"]
		}
		for i, r := range []func() *http.Request{
			func() *http.Request {
				return &http.Request{Method: http.MethodGet, URL: &url.URL{RawQuery: query}, Header: http.Header{}}
			},
			func() *http.Request {
				return &http.Request{Method: http.MethodPost, URL: &url.URL{},
					Header: http.Header{"Content-Type": {"application/json"}},
					Body:   io.NopCloser(bytes.NewReader(body))}
			},
		} {
			req, bm, cfg, err := parsePredict(r())
			if err != nil {
				requireBadRequest(t, "predict", err)
			} else {
				requireScale(t, "predict", req.Scale)
				requireBench(t, "predict", req.Bench, bm)
				if cfg.Name != req.Config {
					t.Fatalf("predict: config %q resolved to %q", req.Config, cfg.Name)
				}
			}

			sreq, bm, err := parseSweep(r())
			if err != nil {
				requireBadRequest(t, "sweep", err)
				continue
			}
			if i == 1 && hasBatch { // the JSON body request
				t.Fatalf("sweep: accepted a JSON body with a batch field: %s", body)
			}
			requireScale(t, "sweep", sreq.Scale)
			requireBench(t, "sweep", sreq.Bench, bm)
			if sreq.Configs < 1 || sreq.Configs > MaxSweepConfigs {
				t.Fatalf("sweep: accepted configs %d outside [1, %d]", sreq.Configs, MaxSweepConfigs)
			}
		}
	})
}

func requireBadRequest(t *testing.T, what string, err error) {
	t.Helper()
	var he *httpError
	if !errors.As(err, &he) || he.code != http.StatusBadRequest {
		t.Fatalf("%s: rejection %v is not a 400", what, err)
	}
}

func requireScale(t *testing.T, what string, scale float64) {
	t.Helper()
	if !(scale > 0) || scale > 1 {
		t.Fatalf("%s: accepted scale %v outside (0, 1]", what, scale)
	}
}

func requireBench(t *testing.T, what, name string, bm workload.Benchmark) {
	t.Helper()
	want, err := workload.ResolveBenchmark(name)
	if err != nil {
		t.Fatalf("%s: accepted unresolvable bench %q: %v", what, name, err)
	}
	if bm.Name != want.Name {
		t.Fatalf("%s: bench %q resolved to %q, want %q", what, name, bm.Name, want.Name)
	}
}
