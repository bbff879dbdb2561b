package bench

import "io"

// experiment is one registry entry. run executes the experiment with
// its default configuration, writes its BENCH_<ID>.json record to w if
// it keeps one, and returns the rendered table.
type experiment struct {
	id       string
	recorded bool
	run      func(w io.Writer) (*Table, error)
}

// tableOnly registers an exhibit that only renders a table.
func tableOnly(id string, f func() *Table) experiment {
	return experiment{id: id, run: func(io.Writer) (*Table, error) { return f(), nil }}
}

// withRecord registers an experiment whose raw data is kept alongside
// the rendered table.
func withRecord[D interface{ Table() *Table }](id string, run func() (D, error)) experiment {
	return experiment{id: id, recorded: true, run: func(w io.Writer) (*Table, error) {
		d, err := run()
		if err != nil {
			return nil, err
		}
		return d.Table(), writeJSON(w, d)
	}}
}

// registry lists every experiment in run order: E1–E8 reproduce the
// paper's exhibits, E9–E11 ablate DESIGN.md's design choices, E12
// measures the fault-localization extension, E13 the pipelined
// transport under concurrent TCP clients, E14 availability and
// recovery under fault injection, E15 witness replication (failover by
// promotion, fork conviction by gossip), E17 the epoch-batched async audit
// (verified throughput off the hot path, detection within one epoch),
// E18 the crash matrix of the durable audit journal, E21 overload
// protection (open-loop goodput sweep to 4x capacity, priority
// shedding, adversary conviction under flood).
var registry = []experiment{
	tableOnly("E1", E1), tableOnly("E2", E2), tableOnly("E3", E3), tableOnly("E4", E4),
	tableOnly("E5", E5), tableOnly("E6", E6), tableOnly("E7", E7), tableOnly("E8", E8),
	tableOnly("E9", E9), tableOnly("E10", E10), tableOnly("E11", E11), tableOnly("E12", E12),
	withRecord("E13", func() (*E13Data, error) { return RunE13(DefaultE13Config()) }),
	withRecord("E14", func() (*E14Data, error) { return RunE14(DefaultE14Config()) }),
	withRecord("E15", func() (*E15Data, error) { return RunE15(DefaultE15Config()) }),
	withRecord("E17", func() (*E17Data, error) { return RunE17(DefaultE17Config()) }),
	withRecord("E18", func() (*E18Data, error) { return RunE18(DefaultE18Config()) }),
	withRecord("E21", func() (*E21Data, error) { return RunE21(DefaultE21Config()) }),
}

// All lists every experiment id in run order.
func All() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// ByID returns one experiment's runner and whether it keeps a
// BENCH_<ID>.json record. run executes the experiment with its default
// configuration, writes the record (if any) to w and returns the
// rendered table.
func ByID(id string) (run func(w io.Writer) (*Table, error), recorded, ok bool) {
	for _, e := range registry {
		if e.id == id {
			return e.run, e.recorded, true
		}
	}
	return nil, false, false
}
