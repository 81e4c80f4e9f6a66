//go:build race

package hrtimer

func init() { lateness *= 2 } // the detector's instrumentation is on every hop of the wake-up
