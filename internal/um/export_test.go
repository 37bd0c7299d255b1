package um

import "time"

// OutboxPolicy is the outbox's retry and breaker policy, for tests that
// cannot wait out the shipped backoffs.
type OutboxPolicy struct {
	MaxRetries       int
	BaseBackoff      time.Duration
	MaxBackoff       time.Duration
	BreakerThreshold int
}

// SetOutboxPolicy replaces the shipped outbox policy. Call it before Start:
// the breakers are built there.
func (u *UM) SetOutboxPolicy(p OutboxPolicy) {
	ob := u.outbox
	ob.maxRetries, ob.breakerThreshold = p.MaxRetries, p.BreakerThreshold
	ob.baseBackoff, ob.maxBackoff = p.BaseBackoff, p.MaxBackoff
}
