package testonly

import "testing"

// A read in a test does not count: tally.seen is still reported.
func TestSeen(t *testing.T) {
	if sample.seen != 0 {
		t.Fatal(sample.seen)
	}
}
