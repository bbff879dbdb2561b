package bench

// experiment is one registry entry: run executes the experiment with
// its default configuration and returns the rendered table.
type experiment struct {
	id  string
	run func() (*Table, error)
}

// tableOnly registers an exhibit that only renders a table.
func tableOnly(id string, f func() *Table) experiment {
	return experiment{id: id, run: func() (*Table, error) { return f(), nil }}
}

// measured registers an experiment that returns its data and renders
// the table from it.
func measured[D interface{ Table() *Table }](id string, run func() (D, error)) experiment {
	return experiment{id: id, run: func() (*Table, error) {
		d, err := run()
		if err != nil {
			return nil, err
		}
		return d.Table(), nil
	}}
}

// registry lists every experiment in run order: E1–E6 and E8 reproduce
// the paper's exhibits, E9–E11 ablate DESIGN.md's design choices, E12
// measures the fault-localization extension, E14 availability and
// recovery under fault injection, E15 witness replication (failover by
// promotion, fork conviction by gossip), E17 the epoch-batched async
// audit's detection bound (conviction within one epoch), E18 the crash
// matrix of the durable audit journal, E21 overload protection
// (open-loop goodput sweep to 4x capacity, priority shedding, adversary
// conviction under flood). E7, E13 and E16 are retired; EXPERIMENTS.md
// keeps their last recorded figures.
var registry = []experiment{
	tableOnly("E1", E1), tableOnly("E2", E2), tableOnly("E3", E3), tableOnly("E4", E4),
	tableOnly("E5", E5), tableOnly("E6", E6), tableOnly("E8", E8),
	tableOnly("E9", E9), tableOnly("E10", E10), tableOnly("E11", E11), tableOnly("E12", E12),
	measured("E14", func() (*E14Data, error) { return RunE14(DefaultE14Config()) }),
	measured("E15", func() (*E15Data, error) { return RunE15(DefaultE15Config()) }),
	measured("E17", func() (*E17Data, error) { return RunE17(DefaultE17Config()) }),
	measured("E18", func() (*E18Data, error) { return RunE18(DefaultE18Config()) }),
	measured("E21", func() (*E21Data, error) { return RunE21(DefaultE21Config()) }),
}

// All lists every experiment id in run order.
func All() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// ByID returns one experiment's runner, which executes the experiment
// with its default configuration and returns the rendered table.
func ByID(id string) (run func() (*Table, error), ok bool) {
	for _, e := range registry {
		if e.id == id {
			return e.run, true
		}
	}
	return nil, false
}
