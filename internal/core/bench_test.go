package core

import (
	"testing"

	"repro/internal/syncx"
)

// BenchmarkSGTSpawn measures the SGT invocation+completion path — the
// number EXP-G1 reports at experiment scale.
func BenchmarkSGTSpawn(b *testing.B) {
	rt := NewRuntime(Config{WorkersPerLocale: 4})
	defer rt.Shutdown()
	b.ResetTimer()
	var done syncx.Counter
	for i := 0; i < b.N; i++ {
		rt.Go(func(s *SGT) { done.Done(1) })
	}
	done.SetTarget(b.N)
	done.Wait()
}

// BenchmarkSGTSpawnFramed includes frame allocation and recycling.
func BenchmarkSGTSpawnFramed(b *testing.B) {
	rt := NewRuntime(Config{WorkersPerLocale: 4})
	defer rt.Shutdown()
	b.ResetTimer()
	var done syncx.Counter
	for i := 0; i < b.N; i++ {
		rt.GoAt(0, 256, func(s *SGT) { done.Done(1) })
	}
	done.SetTarget(b.N)
	done.Wait()
}

// BenchmarkFiberFire measures TGT enable+run inside one SGT.
func BenchmarkFiberFire(b *testing.B) {
	rt := NewRuntime(Config{WorkersPerLocale: 2})
	defer rt.Shutdown()
	finished := make(chan struct{})
	n := b.N
	b.ResetTimer()
	rt.GoAt(0, 64, func(s *SGT) {
		remaining := n
		var chain func()
		chain = func() {
			if remaining == 0 {
				close(finished)
				return
			}
			remaining--
			s.NewFiber(0, func(f *Fiber) { chain() })
		}
		chain()
	})
	<-finished
}

// BenchmarkLGTSpawn measures the heavy end of the grain hierarchy.
func BenchmarkLGTSpawn(b *testing.B) {
	rt := NewRuntime(Config{})
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := rt.SpawnLGT(0, func(l *LGT) {})
		l.Done().Get()
	}
}

// BenchmarkStealThroughput hammers a skewed submission pattern so
// every dequeue is a steal.
func BenchmarkStealThroughput(b *testing.B) {
	rt := NewRuntime(Config{Locales: 2, WorkersPerLocale: 2, Steal: StealGlobal})
	defer rt.Shutdown()
	b.ResetTimer()
	var done syncx.Counter
	for i := 0; i < b.N; i++ {
		rt.GoAt(0, 0, func(s *SGT) { done.Done(1) })
	}
	done.SetTarget(b.N)
	done.Wait()
}

// BenchmarkSGTSpawnDetachedPingPong measures one detached spawn on an
// idle pool, end to end, in the shape of the serve layer's per-batch
// spawn: an outside goroutine calls GoAtDetached on a 2-locale ×
// 2-worker pool and waits for the body to signal back before the next
// spawn, so every spawn finds its target worker parked.
func BenchmarkSGTSpawnDetachedPingPong(b *testing.B) {
	rt := NewRuntime(Config{Locales: 2, WorkersPerLocale: 2})
	defer rt.Shutdown()
	back := make(chan struct{}, 1)
	signal := func(_ *SGT, arg any) { arg.(chan struct{}) <- struct{}{} }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.GoAtDetached(i&1, 0, signal, back)
		<-back
	}
}
