//go:build race

package libdpr_test

func init() { wakeUp *= 2 } // the detector is on every hop of a wake-up
