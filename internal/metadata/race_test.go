//go:build race

package metadata

func init() { raceDetector = true }
