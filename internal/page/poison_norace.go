//go:build !race

package page

const poisonFrames = false
