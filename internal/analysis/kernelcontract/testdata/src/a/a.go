// Package a is kernelcontract golden-test input: component types with
// consistent and inconsistent Quiescer/IdleWindower/Timed/Sleeper
// matrices. The analyzer matches the kernel interfaces structurally, so
// no sim import is needed.
package a

// Good is a quiescent component with idle bookkeeping — the full,
// consistent contract.
type Good struct{ cycle uint64 }

func (g *Good) Eval()               {}
func (g *Good) Commit()             {}
func (g *Good) Quiescent() bool     { return true }
func (g *Good) IdleWindow(n uint64) { g.cycle += n }

// BadQuiescer skips cycles but has no idle replay.
type BadQuiescer struct{} // want `BadQuiescer implements sim\.Quiescer but not sim\.IdleWindower`

func (b *BadQuiescer) Eval()           {}
func (b *BadQuiescer) Commit()         {}
func (b *BadQuiescer) Quiescent() bool { return true }

// BadTimed self-schedules events but can never be skipped, so it blocks
// every fast-forward it schedules.
type BadTimed struct{} // want `BadTimed implements sim\.Timed but not sim\.Quiescer`

func (b *BadTimed) Eval()                     {}
func (b *BadTimed) Commit()                   {}
func (b *BadTimed) NextEvent() (uint64, bool) { return 0, false }

// GoodTimed is the consistent Timed contract: quiescent, with batched
// idle replay so the kernel can fast-forward it between events.
type GoodTimed struct{ cycle uint64 }

func (g *GoodTimed) Eval()                     {}
func (g *GoodTimed) Commit()                   {}
func (g *GoodTimed) Quiescent() bool           { return true }
func (g *GoodTimed) IdleWindow(n uint64)       { g.cycle += n }
func (g *GoodTimed) NextEvent() (uint64, bool) { return 0, false }

// BadTimedTicker schedules events and is quiescent, but only replays
// idle time cycle by cycle through a per-cycle IdleTick, which no kernel
// calls: its bookkeeping desyncs on every skipped cycle.
type BadTimedTicker struct{ cycle uint64 } // want `BadTimedTicker implements sim\.Quiescer but not sim\.IdleWindower`

func (b *BadTimedTicker) Eval()                     {}
func (b *BadTimedTicker) Commit()                   {}
func (b *BadTimedTicker) Quiescent() bool           { return true }
func (b *BadTimedTicker) IdleTick()                 { b.cycle++ }
func (b *BadTimedTicker) NextEvent() (uint64, bool) { return 0, false }

// GoodSleeper parks while asleep and is woken only by its mutators.
type GoodSleeper struct{ wake func() }

func (g *GoodSleeper) Eval()               {}
func (g *GoodSleeper) Commit()             {}
func (g *GoodSleeper) Quiescent() bool     { return true }
func (g *GoodSleeper) IdleWindow(n uint64) {}
func (g *GoodSleeper) SetWake(fn func())   { g.wake = fn }
func (g *GoodSleeper) Asleep() bool        { return true }

// BadTimedSleeper self-schedules events but parks while asleep, where
// the kernel never reads its NextEvent.
type BadTimedSleeper struct{ wake func() } // want `BadTimedSleeper implements both sim\.Sleeper and sim\.Timed`

func (b *BadTimedSleeper) Eval()                     {}
func (b *BadTimedSleeper) Commit()                   {}
func (b *BadTimedSleeper) Quiescent() bool           { return true }
func (b *BadTimedSleeper) IdleWindow(n uint64)       {}
func (b *BadTimedSleeper) SetWake(fn func())         { b.wake = fn }
func (b *BadTimedSleeper) Asleep() bool              { return true }
func (b *BadTimedSleeper) NextEvent() (uint64, bool) { return 0, false }

// NotAComponent has a Quiescent method but no Eval/Commit; the kernel
// contracts do not apply.
type NotAComponent struct{}

func (n *NotAComponent) Quiescent() bool { return false }

// Monitor is a plain every-cycle component — no optional interfaces, no
// contract to violate.
type Monitor struct{}

func (m *Monitor) Eval()   {}
func (m *Monitor) Commit() {}

// Suppressed violates the Quiescer contract intentionally.
type Suppressed struct{} //nocvet:allow kernelcontract -- stateless sink, nothing to replay

func (s *Suppressed) Eval()           {}
func (s *Suppressed) Commit()         {}
func (s *Suppressed) Quiescent() bool { return true }
