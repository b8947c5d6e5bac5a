package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// goldenJSON holds exact values (correlator fingerprints, solver
// counts, cache compute counts) recorded from earlier runs. An entry
// keyed by a workload name holds for every seed: the inputs behind it
// (campaign-cold's ensemble pool, service-dedupe's base specs) do not
// depend on the seed. An entry keyed "<workload>/<seed>" holds for that
// seed only. A run must reproduce every value listed for it; its own
// repeats must agree in any case. The report's "golden" line prints a
// run's values in this format for recording.
//
//go:embed golden.json
var goldenJSON []byte

var goldenTable = func() map[string]map[string]string {
	t := map[string]map[string]string{}
	if err := json.Unmarshal(goldenJSON, &t); err != nil {
		panic(fmt.Sprintf("perfbench: golden.json: %v", err))
	}
	return t
}()

// exact records one exact value of this run and, when golden.json lists
// the run's workload and seed, checks it against the recorded one.
func (b *bench) exact(key, value string) {
	if b.exacts == nil {
		b.exacts = map[string]string{}
	}
	if prev, ok := b.exacts[key]; ok {
		b.check(prev == value, "%s: %s is %s in one measurement and %s in another", b.name, key, prev, value)
		return
	}
	b.exacts[key] = value
	for _, entry := range []string{b.name, fmt.Sprintf("%s/%d", b.name, b.seed)} {
		if want, ok := goldenTable[entry][key]; ok {
			b.check(want == value, "%s seed %d: %s = %s, recorded %s", b.name, b.seed, key, value, want)
		}
	}
}

// goldenLine renders the run's exact values as one golden.json entry.
func (b *bench) goldenLine() string {
	keys := make([]string, 0, len(b.exacts))
	for k := range b.exacts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%q: %q", k, b.exacts[k])
	}
	return fmt.Sprintf("%q: {%s}", fmt.Sprintf("%s/%d", b.name, b.seed), strings.Join(parts, ", "))
}
