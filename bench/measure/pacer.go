package measure

// Pacer drives an open loop: operation i is due at start + i·interval
// whether or not operation i−1 has finished, and latency is taken from
// that due time, so a stall is charged to every operation it delays
// (no coordinated omission). The pacer spin-waits — a sleep's wake-up
// jitter is larger than the latencies being measured — and accounts
// for how late the generator itself ran.
type Pacer struct {
	now      func() int64 // nanosecond clock
	start    int64
	interval int64
	issued   int64

	// LateMax is the worst delay between an operation's due time and
	// the moment the generator could issue it.
	LateMax int64
}

// NewPacer starts a schedule of one operation every interval
// nanoseconds on the given clock; the first is due one interval from
// now.
func NewPacer(now func() int64, interval int64) *Pacer {
	return &Pacer{now: now, start: now(), interval: interval}
}

// Next blocks until the next operation is due and returns its due
// time. When the caller is already behind schedule it returns at once
// and records the lateness.
func (p *Pacer) Next() (due int64) {
	p.issued++
	due = p.start + p.issued*p.interval
	t := p.now()
	if t > due {
		if late := t - due; late > p.LateMax {
			p.LateMax = late
		}
		return due
	}
	for t < due {
		t = p.now()
	}
	return due
}
