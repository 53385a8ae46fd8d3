// Package testonly exercises the testonly analyzer: every function is
// reached by non-test code or is API.
package testonly

import "fmt"

func Planted() int { return 1 } // want:testonly

// countdown refers only to itself, which does not count.
func countdown(n int) int { // want:testonly
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// celsius satisfies fmt.Stringer: String is called through the interface.
type celsius float64

func (c celsius) String() string { return fmt.Sprintf("%.1f C", float64(c)) }

func (c celsius) Fahrenheit() float64 { return float64(c)*9/5 + 32 } // want:testonly

// A package-level declaration reaches Reading, and Reading reaches helper.
var room = Reading()

func Reading() celsius { return helper(20) }

func helper(v float64) celsius { return celsius(v) }

//lint:allow testonly kept as a worked example
func Kept() {}

func init() { _ = room }
