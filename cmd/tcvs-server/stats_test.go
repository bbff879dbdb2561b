package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"trustedcvs/internal/transport"
)

// TestStatsEndpointShape pins the /debug/tcvs document: a fully
// decorated deployment (admission + hub + publisher lanes + journal)
// must expose every subsystem with the agreed keys, and the shed map
// must carry all four priority classes by name.
func TestStatsEndpointShape(t *testing.T) {
	adm := transport.NewAdmission(transport.AdmissionOptions{})
	if err := adm.Acquire(transport.PriorityUser, time.Time{}); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	adm.Release(time.Millisecond)
	src := statsSources{
		Admission: adm.Stats,
		Hub:       func() (int, int, uint64, uint64) { return 2, 17, 1, 3 },
		Lanes:     func() map[string]string { return map[string]string{"w0": "closed", "w1": "open"} },
		Fanout:    func() (uint64, uint64, uint64) { return 10, 4, 1 },
		EpochLen:  64,
		WALMode:   func() string { return "epoch-batched" },
	}
	ts := httptest.NewServer(newStatsMux(src))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/tcvs")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var doc struct {
		EpochLen  uint64 `json:"epoch_len"`
		WALMode   string `json:"wal_mode"`
		Admission struct {
			Limit          int               `json:"limit"`
			Inflight       int               `json:"inflight"`
			QueueDepth     int               `json:"queue_depth"`
			QueueHighWater int               `json:"queue_high_water"`
			Admitted       uint64            `json:"admitted"`
			Shed           map[string]uint64 `json:"shed"`
			Expired        map[string]uint64 `json:"expired"`
			LatencyEWMAUs  int64             `json:"latency_ewma_us"`
		} `json:"admission"`
		Hub struct {
			Conns     int    `json:"conns"`
			LogLen    int    `json:"log_len"`
			SlowFlips uint64 `json:"slow_flips"`
			Evictions uint64 `json:"evictions"`
		} `json:"hub"`
		Breakers map[string]string `json:"breakers"`
		Fanout   map[string]uint64 `json:"fanout"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if doc.EpochLen != 64 || doc.WALMode != "epoch-batched" {
		t.Errorf("epoch_len/wal_mode = %d/%q, want 64/epoch-batched", doc.EpochLen, doc.WALMode)
	}
	if doc.Admission.Admitted != 1 || doc.Admission.Limit < 2 {
		t.Errorf("admission = %+v, want 1 admitted", doc.Admission)
	}
	if doc.Admission.LatencyEWMAUs < 500 || doc.Admission.LatencyEWMAUs > 2000 {
		t.Errorf("latency_ewma_us = %d, want ~1000 (one 1ms sample)", doc.Admission.LatencyEWMAUs)
	}
	for _, class := range []string{"user", "audit", "gossip", "background"} {
		if _, ok := doc.Admission.Shed[class]; !ok {
			t.Errorf("shed map missing class %q", class)
		}
		if _, ok := doc.Admission.Expired[class]; !ok {
			t.Errorf("expired map missing class %q", class)
		}
	}
	if doc.Hub.Conns != 2 || doc.Hub.LogLen != 17 || doc.Hub.SlowFlips != 1 || doc.Hub.Evictions != 3 {
		t.Errorf("hub = %+v, want {2 17 1 3}", doc.Hub)
	}
	if doc.Breakers["w1"] != "open" || doc.Breakers["w0"] != "closed" {
		t.Errorf("breakers = %v, want w0 closed / w1 open", doc.Breakers)
	}
	if doc.Fanout["delivered"] != 10 || doc.Fanout["skipped"] != 4 || doc.Fanout["tripped"] != 1 {
		t.Errorf("fanout = %v, want delivered 10 / skipped 4 / tripped 1", doc.Fanout)
	}
}

// TestStatsEndpointBare pins the degenerate document: a bare server
// (no hub, publisher, or journal) still serves valid JSON with wal_mode
// "none" — and a populated admission section, because every server
// runs the admission controller.
func TestStatsEndpointBare(t *testing.T) {
	srv, err := transport.Listen("127.0.0.1:0", func(req any) (any, error) { return req, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(newStatsMux(statsSources{Admission: srv.AdmissionStats}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/tcvs")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	adm, ok := doc["admission"].(map[string]any)
	if !ok || adm["limit"] != float64(64) || adm["admitted"] != float64(0) {
		t.Errorf("admission = %v, want the default governor: limit 64, nothing admitted yet", doc["admission"])
	}
	for _, key := range []string{"inflight", "queue_depth", "queue_high_water", "shed", "expired", "latency_ewma_us"} {
		if _, ok := adm[key]; !ok {
			t.Errorf("admission section lacks %q", key)
		}
	}
	if _, ok := adm["enabled"]; ok {
		t.Errorf("admission section still carries the retired on/off key")
	}
	if doc["wal_mode"] != "none" {
		t.Errorf("wal_mode = %v, want none", doc["wal_mode"])
	}
	for _, absent := range []string{"hub", "breakers", "fanout"} {
		if _, ok := doc[absent]; ok {
			t.Errorf("bare document unexpectedly carries %q", absent)
		}
	}
}
