//go:build race

package page

// poisonFrames makes the cache poison a frame before it is reused (see
// takeFrameLocked); it is on wherever the race detector is.
const poisonFrames = true
