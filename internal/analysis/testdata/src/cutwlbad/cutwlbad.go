// Package cutwlbad is the failing fixture for the cut-worldline checker:
// cuts travelling without the world-line they were observed on.
package cutwlbad

import "fixture/core"

type Untagged struct { // want "struct Untagged carries a core.Cut but no world-line tag"
	Cut core.Cut
}

func Returns() core.Cut { // want "Returns returns a core.Cut but no world-line appears in the signature"
	return core.Cut{}
}

func Takes(c core.Cut) { // want "Takes takes a core.Cut but no world-line appears in the signature"
	_ = c
}

type Source interface {
	Snapshot() core.Cut // want "interface method Source.Snapshot returns a core.Cut but no world-line appears in the signature"
}

// AppendCutPush mirrors a push-frame encoder that drops the world-line: the
// pushed cut would be foldable into a session on any world, reproducing the
// numeric-collision bug for idle sessions.
func AppendCutPush(dst []byte, c core.Cut) []byte { // want "AppendCutPush takes a core.Cut but no world-line appears in the signature"
	_ = c
	return dst
}
