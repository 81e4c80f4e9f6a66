// Package hrtimer is a miniature stand-in for the repo's internal/hrtimer.
// The epoch-discipline checker treats Sleep in any package whose import path
// ends in "hrtimer" as it treats time.Sleep.
package hrtimer

import "time"

// Sleep pauses the calling goroutine for at least d.
func Sleep(d time.Duration) { time.Sleep(d) }
