package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/stream"
)

type refKey struct {
	clip   string
	rung   int
	device string
}

// verify checks every completed session against a reference: a
// separate healthy standalone server over the same generated
// catalogue, played fixed-quality at each rung the session was served
// at. A session is wrong (r.wrong) when any frame digest differs, it
// is short, or its ledger savings differ from the reference session's.
func verify(p *plan, results []*sessionResult) error {
	ref := stream.NewServer(p.catalog(nil))
	ref.SetLogf(quiet)
	addr, err := ref.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ref.Close()

	// Every rung a session's frames were served at: the requested one,
	// plus any an adaptive session switched to.
	refs := map[refKey]*refPlay{}
	var keys []refKey
	for _, r := range results {
		if r.err != nil {
			continue
		}
		rungs := append([]uint8{uint8(r.spec.rung)}, r.res.RungByFrame...)
		for _, rung := range rungs {
			k := refKey{r.spec.clip, int(rung), r.spec.device}
			if _, ok := refs[k]; !ok {
				refs[k] = nil
				keys = append(keys, k)
			}
		}
	}
	plays := make([]*refPlay, len(keys))
	err = forEach(len(keys), 2, func(i int) error {
		k := keys[i]
		rp, err := playRef(context.Background(), addr.String(), sessionSpec{clip: k.clip, rung: k.rung, device: k.device})
		if err != nil {
			return fmt.Errorf("reference play %s rung %d on %s: %w", k.clip, k.rung, k.device, err)
		}
		plays[i] = rp
		return nil
	})
	if err != nil {
		return err
	}
	for i, k := range keys {
		refs[k] = plays[i]
	}
	for _, r := range results {
		if r.err == nil {
			r.wrong = !matches(r, refs)
		}
	}
	return nil
}

// matches compares one session with its reference plays.
func matches(r *sessionResult, refs map[refKey]*refPlay) bool {
	want := refs[refKey{r.spec.clip, r.spec.rung, r.spec.device}]
	if len(r.digests) != len(want.digests) || r.res.Frames != len(want.digests) {
		return false
	}
	for i, d := range r.digests {
		rung := r.spec.rung
		if i < len(r.res.RungByFrame) {
			rung = int(r.res.RungByFrame[i])
		}
		if d != refs[refKey{r.spec.clip, rung, r.spec.device}].digests[i] {
			return false
		}
	}
	if r.res.QualitySwitches > 0 {
		// A switched session's savings mix rungs; no single reference
		// session matches it, and its frames were checked above.
		return true
	}
	got, exp := r.res.Ledger.SavedJoules, want.res.Ledger.SavedJoules
	return math.Abs(got-exp) <= 1e-9*math.Max(1, math.Abs(exp))
}
