package main

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// TestRestoreRefusesMisfits: a snapshot that does not fit the rank — phase
// 9, or one holding only the round — is refused and leaves the rank as it
// was, and a Step at a phase it has no case for fails instead of returning
// more work forever without an MPI call.
func TestRestoreRefusesMisfits(t *testing.T) {
	src := newPiApp(10, 5)
	src.Round, src.Seed = 4, 99
	good, _ := src.Snapshot()
	phase9 := bytes.Clone(good)
	binary.LittleEndian.PutUint64(phase9[8:], 9)

	dst := newPiApp(10, 5)
	before, _ := dst.Snapshot()
	for name, data := range map[string][]byte{"phase 9": phase9, "only the round": good[:8]} {
		if err := dst.Restore(data); err == nil || !strings.HasPrefix(err.Error(), "pi: ") {
			t.Errorf("%s: got %v, want a pi: error", name, err)
		}
		if after, _ := dst.Snapshot(); !bytes.Equal(after, before) {
			t.Errorf("%s: a refused snapshot changed the rank", name)
		}
	}
	if err := dst.Restore(good); err != nil || dst.Round != 4 || dst.Seed != 99 {
		t.Fatalf("the well-formed snapshot: err %v, Round %d, Seed %d", err, dst.Round, dst.Seed)
	}

	dst.Phase = 9
	if more, err := dst.Step(nil); more || err == nil {
		t.Fatalf("Step at phase 9: more %v, err %v; want an error and no more work", more, err)
	}
}
