//go:build race

package allocpin

func init() { skip = "sync.Pool drops a share of its puts under the race detector" }
