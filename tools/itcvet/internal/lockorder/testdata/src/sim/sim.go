// Package sim stubs the simulation kernel's parking operations for the
// lockorder fixtures.
package sim

type Proc struct{}

func (*Proc) Sleep(d int64)

type Future[T any] struct{}

func (*Future[T]) Wait(p *Proc) T
