//go:build !race

package itcfs_test

const raceEnabled = false
