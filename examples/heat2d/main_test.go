package main

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// TestRestoreRefusesMisfits: a snapshot that does not fit a tile — a
// 3-element U at phase 9, or one holding only Iter — is refused and leaves
// the tile as it was, and a Step at a phase it has no case for fails
// instead of returning more work forever without an MPI call. Through gob
// both snapshots restored with a nil error.
func TestRestoreRefusesMisfits(t *testing.T) {
	src := newHeatApp()
	src.Iter, src.U[7] = 3, 1.5
	good, _ := src.Snapshot()
	short := newHeatApp()
	short.U, short.Phase = short.U[:3], 9
	phase9, _ := short.Snapshot()
	onlyIter := binary.LittleEndian.AppendUint64(nil, 3)

	dst := newHeatApp()
	before, _ := dst.Snapshot()
	for name, data := range map[string][]byte{"3-element U at phase 9": phase9, "only Iter": onlyIter} {
		if err := dst.Restore(data); err == nil || !strings.HasPrefix(err.Error(), "heat2d: ") {
			t.Errorf("%s: got %v, want a heat2d: error", name, err)
		}
		if after, _ := dst.Snapshot(); !bytes.Equal(after, before) {
			t.Errorf("%s: a refused snapshot changed the tile", name)
		}
	}
	if err := dst.Restore(good); err != nil || dst.Iter != 3 || dst.U[7] != 1.5 {
		t.Fatalf("the well-formed snapshot: err %v, Iter %d, U[7] %v", err, dst.Iter, dst.U[7])
	}

	dst.Phase = 9
	if more, err := dst.Step(nil); more || err == nil {
		t.Fatalf("Step at phase 9: more %v, err %v; want an error and no more work", more, err)
	}
}
