package main

import (
	"encoding/json"
	"net/http"

	"trustedcvs/internal/transport"
)

// statsSources bundles the live components the -stats-addr debug
// endpoint snapshots. Admission is required — every server runs the
// admission controller; every other field is optional: a nil func (or
// zero value) reports that subsystem as absent rather than failing, so
// the endpoint works identically for a bare server and a fully
// decorated deployment (hub, witness publisher, op journal).
type statsSources struct {
	// Admission snapshots the transport's admission controller.
	Admission func() transport.AdmissionStats
	// Hub snapshots the hosted broadcast hub (nil = no -hub).
	Hub func() (conns, logLen int, slowFlips, evictions uint64)
	// Lanes snapshots the witness publisher's per-lane delivery
	// breaker states (nil = no -witnesses).
	Lanes func() map[string]string
	// Fanout reports the publisher's delivered/skipped/tripped
	// counters (nil = no -witnesses).
	Fanout func() (delivered, skipped, tripped uint64)
	// EpochLen is the provisioned epoch length in global operations
	// (0 = sync-mode deployment).
	EpochLen uint64
	// WALMode reports the op journal's durability mode: "none" (no
	// journal), "epoch-batched" (healthy), or "degraded" (a write or
	// fsync failed; clients have narrowed to per-op durability).
	WALMode func() string
}

// snapshot assembles the stats document. Shed and expired counts are
// keyed by priority class name so the shedding order is readable off
// the wire without the Priority enum in hand.
func (s statsSources) snapshot() map[string]any {
	doc := map[string]any{
		"epoch_len": s.EpochLen,
	}
	if s.WALMode != nil {
		doc["wal_mode"] = s.WALMode()
	} else {
		doc["wal_mode"] = "none"
	}
	st := s.Admission()
	shed := map[string]uint64{}
	expired := map[string]uint64{}
	for c := transport.Priority(0); c < transport.NumPriorities; c++ {
		shed[c.String()] = st.Shed[c]
		expired[c.String()] = st.Expired[c]
	}
	doc["admission"] = map[string]any{
		"limit":            st.Limit,
		"inflight":         st.Inflight,
		"queue_depth":      st.Depth,
		"queue_high_water": st.HighWater,
		"admitted":         st.Admitted,
		"shed":             shed,
		"expired":          expired,
		"latency_ewma_us":  st.LatencyEWMA.Microseconds(),
	}
	if s.Hub != nil {
		conns, logLen, flips, evictions := s.Hub()
		doc["hub"] = map[string]any{
			"conns":      conns,
			"log_len":    logLen,
			"slow_flips": flips,
			"evictions":  evictions,
		}
	}
	if s.Lanes != nil {
		doc["breakers"] = s.Lanes()
	}
	if s.Fanout != nil {
		delivered, skipped, tripped := s.Fanout()
		doc["fanout"] = map[string]uint64{
			"delivered": delivered,
			"skipped":   skipped,
			"tripped":   tripped,
		}
	}
	return doc
}

// newStatsMux builds the -stats-addr handler: GET /debug/tcvs returns
// the snapshot as indented JSON. expvar publication is main's job —
// package-level expvar.Publish would panic on re-registration, which
// tests building several muxes must not trip.
func newStatsMux(src statsSources) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/tcvs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(src.snapshot()); err != nil {
			// A mid-stream encode failure means the peer hung up; the
			// connection is gone, there is nowhere left to report it.
			return
		}
	})
	return mux
}
