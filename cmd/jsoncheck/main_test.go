package main

import "testing"

func TestCheckCounters(t *testing.T) {
	manifest := []byte(`{"schema":"mhpc-run-manifest/v1","counters":{"faults.injected":7,"faults.node_fail":0}}`)
	cases := []struct {
		name     string
		required []string
		wantErr  bool
	}{
		{"no requirements", nil, false},
		{"present and positive", []string{"faults.injected"}, false},
		{"whitespace tolerated", []string{" faults.injected "}, false},
		{"missing counter", []string{"faults.restarts"}, true},
		{"zero counter", []string{"faults.node_fail"}, true},
		{"one bad among good", []string{"faults.injected", "faults.restarts"}, true},
	}
	for _, c := range cases {
		err := checkCounters(manifest, c.required)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
		}
	}
	if err := checkCounters([]byte(`{"no_counters":true}`), []string{"x"}); err == nil {
		t.Error("manifest without counters object: want error")
	}
}

func TestCheckManifest(t *testing.T) {
	cases := []struct {
		name    string
		doc     string
		wantErr bool
	}{
		{"not a manifest", `{"traceEvents":[]}`, false},
		{"non-object JSON", `[1,2,3]`, false},
		{"v1 accepted", `{"schema":"mhpc-run-manifest/v1"}`, false},
		{"v2 accepted", `{"schema":"mhpc-run-manifest/v2"}`, false},
		{"unknown version", `{"schema":"mhpc-run-manifest/v99"}`, true},
		{"valid histogram", `{"schema":"mhpc-run-manifest/v2","histograms":{
			"pool.task_latency_ns":{"count":5,"sum":900,
			"buckets":[{"le":128,"count":2},{"le":256,"count":2}],"overflow":1}}}`, false},
		{"count mismatch", `{"schema":"mhpc-run-manifest/v2","histograms":{
			"h":{"count":9,"buckets":[{"le":128,"count":2}],"overflow":1}}}`, true},
		{"bounds not increasing", `{"schema":"mhpc-run-manifest/v2","histograms":{
			"h":{"count":4,"buckets":[{"le":256,"count":2},{"le":128,"count":2}]}}}`, true},
		{"zero bucket count", `{"schema":"mhpc-run-manifest/v2","histograms":{
			"h":{"count":0,"buckets":[{"le":128,"count":0}]}}}`, true},
		{"negative overflow", `{"schema":"mhpc-run-manifest/v2","histograms":{
			"h":{"count":-1,"overflow":-1}}}`, true},
	}
	for _, c := range cases {
		err := checkManifest([]byte(c.doc))
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
		}
	}
}
