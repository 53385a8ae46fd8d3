package testonly

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
)

// tally's fields are all state no program reads.
type tally struct {
	last  int    // want:testonly — only assigned
	calls int    // want:testonly — only incremented
	label string // want:testonly — only a composite literal sets it
	seen  int    // want:testonly — only a test reads it
	slots [4]int // want:testonly — only its elements are stored
}

func record(t *tally, v int) {
	t.last = v
	t.calls++
	t.slots[v&3] = v
}

var sample = &tally{label: "sample"}

// The encoders read wire's and report's fields, and the map and the
// comparison read every field of span and point.
type wire struct{ Epoch, Ranks int }

type report struct {
	Name  string `json:"name"`
	Bytes int64
}

type span struct{ off, n int }

type point struct{ x, y int }

// derived embeds base: no selector reads the embedded field itself, and it
// is not reported (id, promoted through it, is read).
type base struct{ id int }

type derived struct {
	base
	note string
}

func encodeAll() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire{Epoch: 1}); err != nil {
		return nil, err
	}
	return json.Marshal(&report{Name: "r"})
}

func bookkeep() bool {
	spans := map[span]bool{{off: 1}: true}
	d := derived{note: "d"}
	return spans[span{n: 2}] && point{x: 1} == point{y: 2} && d.id == len(d.note)
}

func init() {
	record(sample, 1)
	_, _ = encodeAll()
	_ = bookkeep()
}
