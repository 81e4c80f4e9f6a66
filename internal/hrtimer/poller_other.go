//go:build !linux

package hrtimer

// Without a descriptor the runtime's poller can wait on, the runtime timer is
// the only leg.

func pollerArm(*Timer, int64) {}

func pollerRemove(*Timer) {}
