package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

// pin is one workload's simulated outputs at the default seed.
type pin struct {
	Vector map[string]float64 `json:"vector"`
	Digest string             `json:"digest,omitempty"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string]pin, error) {
	var pins map[string]pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// mustBeZero are the outcome counters that signal a functional failure
// of the simulated system.
var mustBeZero = []string{"core.auth_failures", "core.dsa_errors", "core.record_aborts", "kpi.server_errors"}

// checkOutcome decides whether one run's simulated outputs are right.
// The fault counters must be zero and the run must retire requests. The
// whole vector (and the kv report digest) must then equal ref exactly:
// ref is the pin at the default seed, or the first run of the same seed
// otherwise, since the simulator is deterministic.
func checkOutcome(got outcome, ref pin) error {
	if got.requests == 0 {
		return fmt.Errorf("no simulated request retired")
	}
	for _, k := range mustBeZero {
		if got.vector[k] != 0 {
			return fmt.Errorf("%s = %g, want 0", k, got.vector[k])
		}
	}
	if got.digest != ref.Digest {
		return fmt.Errorf("report digest %s, want %s", got.digest, ref.Digest)
	}
	keys := map[string]bool{}
	for k := range got.vector {
		keys[k] = true
	}
	for k := range ref.Vector {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		g, okG := got.vector[k]
		w, okW := ref.Vector[k]
		if g != w || okG != okW {
			diffs = append(diffs, fmt.Sprintf("%s = %v, want %v", k, g, w))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("outputs differ from the reference: %v", diffs)
	}
	return nil
}

func (o outcome) pin() pin { return pin{Vector: o.vector, Digest: o.digest} }
