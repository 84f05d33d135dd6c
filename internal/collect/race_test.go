//go:build race

package collect

func init() { raceDetector = true }
