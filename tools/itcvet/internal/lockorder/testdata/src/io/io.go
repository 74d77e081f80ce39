// Package io is a fixture stub: the stream interfaces whose reads and
// writes lockorder counts as blocking.
package io

type Reader interface {
	Read(p []byte) (int, error)
}

type Writer interface {
	Write(p []byte) (int, error)
}
