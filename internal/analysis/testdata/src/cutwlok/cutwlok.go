// Package cutwlok is the clean fixture for the cut-worldline checker: every
// scope that carries a cut also carries the world-line it was observed on.
package cutwlok

import "fixture/core"

// TaggedReply pairs the cut with its world-line.
type TaggedReply struct {
	Cut       core.Cut
	WorldLine core.WorldLine
}

// ByWorldLine is self-tagging: the key is the world-line.
type ByWorldLine map[core.WorldLine]core.Cut

// Observe returns a tagged pair.
func Observe() (core.Cut, core.WorldLine) {
	return core.Cut{}, 0
}

// Snapshotter owns a cut; its tracker field tags every method through the
// receiver scope.
type Snapshotter struct {
	wl  core.WorldLineTracker
	cut core.Cut
}

// Current is exempt through the receiver's tag.
func (s *Snapshotter) Current() core.Cut {
	return s.cut
}

// Source's method signature carries the pair explicitly.
type Source interface {
	CurrentCut() (core.Cut, core.WorldLine)
}

// PushedAdvance mirrors the decoded cut-advance push frame: the cut is
// tagged by the world-line field beside it.
type PushedAdvance struct {
	WorldLine core.WorldLine
	Cut       core.Cut
}

// AppendCutAdvance mirrors the push-frame encoder: the cut travels with the
// world-line in the same signature.
func AppendCutAdvance(dst []byte, wl core.WorldLine, c core.Cut) []byte {
	_ = wl
	_ = c
	return dst
}
