package serve

// Fake-clock unit tests for the lease state machine: grant → renew →
// complete on the happy path; expiry → re-enqueue with attempt counting and
// the poison cap on the unhappy one. No goroutines, no sleeps — the clock
// is a variable and tick() is called by hand.

import (
	"sync"
	"testing"
	"time"

	"dve/internal/results"
)

// testClock is a manually-advanced monotonic clock.
type testClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *testClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func testJob(key string) job { return job{key: results.Key(key)} }

func newTestQueue(ttl time.Duration, maxAttempts int) (*leaseQueue, *testClock) {
	c := &testClock{}
	return newLeaseQueue(ttl, maxAttempts, newStream(c.Now, nil, 0)), c
}

// ledgerOf reads the queue's counters back from the stream's ledger.
func ledgerOf(q *leaseQueue) Metrics { return q.st.ledgerMetrics() }

// complete retires a live lease as done.
func complete(q *leaseQueue, l *lease) bool { return q.retire(l.id, l.job, l.owner, "") }

func TestLeaseGrantRenewComplete(t *testing.T) {
	q, clk := newTestQueue(100*time.Millisecond, 3)
	if !q.enqueue(testJob("a"), 8) {
		t.Fatal("enqueue refused")
	}
	l, ok := q.tryLease("w1", false)
	if !ok || string(l.job.key) != "a" || l.attempts != 1 {
		t.Fatalf("lease = %+v, %v", l, ok)
	}
	// Renewal pushes the deadline: 80ms steps never expire a 100ms TTL.
	for i := 0; i < 5; i++ {
		clk.Advance(80 * time.Millisecond)
		if !q.renew(l.id, "w1") {
			t.Fatalf("renew %d failed", i)
		}
	}
	q.tick()
	if s := ledgerOf(q); s.LeaseExpired != 0 || s.Leased != 1 {
		t.Fatalf("stats after renewals: %+v", s)
	}
	if !complete(q, l) {
		t.Fatal("complete failed")
	}
	if s := ledgerOf(q); s.Leased != 0 || s.Completed != 1 || s.Renewals != 5 {
		t.Fatalf("final stats: %+v", s)
	}
}

func TestLeaseExpiryRequeuesWithAttemptCount(t *testing.T) {
	q, clk := newTestQueue(100*time.Millisecond, 3)
	q.enqueue(testJob("a"), 8)
	l1, _ := q.tryLease("w1", false)
	clk.Advance(101 * time.Millisecond)
	q.tick()
	if s := ledgerOf(q); s.LeaseExpired != 1 || s.Requeued != 1 || s.QueueLen != 1 || s.Leased != 0 {
		t.Fatalf("post-expiry stats: %+v", s)
	}
	// The dead lease is unrenewable: its next incarnation is someone else's.
	if q.renew(l1.id, "w1") {
		t.Fatal("renew succeeded on an expired lease")
	}
	l2, ok := q.tryLease("w2", false)
	if !ok || l2.attempts != 2 || l2.id == l1.id {
		t.Fatalf("second lease = %+v, %v", l2, ok)
	}
}

func TestLeasePoisonCap(t *testing.T) {
	q, clk := newTestQueue(100*time.Millisecond, 2)
	var poisonedAttempts int
	var poisonedErr string
	q.poisoned = func(j job, attempts int, lastErr string) {
		poisonedAttempts = attempts
		poisonedErr = lastErr
	}
	q.enqueue(testJob("a"), 8)
	for i := 0; i < 2; i++ {
		if _, ok := q.tryLease("w1", false); !ok {
			t.Fatalf("lease %d refused", i)
		}
		clk.Advance(101 * time.Millisecond)
		q.tick()
	}
	s := ledgerOf(q)
	if s.Poisoned != 1 || s.QueueLen != 0 || s.Leased != 0 {
		t.Fatalf("stats after poison: %+v", s)
	}
	if poisonedAttempts != 2 || poisonedErr == "" {
		t.Fatalf("poison report: attempts=%d err=%q", poisonedAttempts, poisonedErr)
	}
	if s.LeaseExpired != 2 || s.Requeued != 1 {
		t.Fatalf("expiry ledger: %+v", s)
	}
}

func TestLocalLeaseNeverExpires(t *testing.T) {
	q, clk := newTestQueue(100*time.Millisecond, 3)
	q.enqueue(testJob("a"), 8)
	l, _ := q.tryLease("local-0", true)
	clk.Advance(24 * time.Hour)
	q.tick()
	if s := ledgerOf(q); s.LeaseExpired != 0 || s.Leased != 1 {
		t.Fatalf("local lease expired: %+v", s)
	}
	if !complete(q, l) {
		t.Fatal("complete failed after long run")
	}
}

func TestFailRequeuesToFront(t *testing.T) {
	q, _ := newTestQueue(100*time.Millisecond, 3)
	q.enqueue(testJob("a"), 8)
	q.enqueue(testJob("b"), 8)
	l, _ := q.tryLease("w1", false)
	if !q.fail(l.id, "worker reported failure") {
		t.Fatal("fail on live lease refused")
	}
	// The failed cell is the oldest work in the system: it goes back to the
	// front, ahead of b.
	l2, _ := q.tryLease("w2", false)
	if string(l2.job.key) != "a" || l2.attempts != 2 {
		t.Fatalf("after fail, next lease = %+v", l2)
	}
}

func TestCompleteKeyCancelsIncarnations(t *testing.T) {
	q, clk := newTestQueue(100*time.Millisecond, 5)
	// Pending incarnation: expired lease put it back in the queue.
	q.enqueue(testJob("a"), 8)
	q.tryLease("w1", false)
	clk.Advance(101 * time.Millisecond)
	q.tick()
	if s := ledgerOf(q); s.QueueLen != 1 {
		t.Fatalf("pre-completeKey stats: %+v", s)
	}
	q.retire(0, testJob("a"), "late", "")
	if s := ledgerOf(q); s.QueueLen != 0 {
		t.Fatalf("completeKey left the pending copy: %+v", s)
	}
	// Leased incarnation: cancel it too.
	q.enqueue(testJob("b"), 8)
	q.tryLease("w2", false)
	q.retire(0, testJob("b"), "late", "")
	if s := ledgerOf(q); s.Leased != 0 {
		t.Fatalf("completeKey left the leased copy: %+v", s)
	}
}

func TestEnqueueBoundsAndClose(t *testing.T) {
	q, _ := newTestQueue(100*time.Millisecond, 3)
	if !q.enqueue(testJob("a"), 1) {
		t.Fatal("first enqueue refused")
	}
	if q.enqueue(testJob("b"), 1) {
		t.Fatal("enqueue past depth accepted")
	}
	q.close()
	if q.enqueue(testJob("c"), 8) {
		t.Fatal("enqueue after close accepted")
	}
	// waitEmpty returns once the last cell resolves.
	done := make(chan struct{})
	go func() { q.waitEmpty(); close(done) }()
	l, _ := q.tryLease("w1", false)
	select {
	case <-done:
		t.Fatal("waitEmpty returned with a lease outstanding")
	default:
	}
	complete(q, l)
	<-done
}

func TestAcquireBlocksUntilAllowed(t *testing.T) {
	q, _ := newTestQueue(100*time.Millisecond, 3)
	allowed := false
	var mu sync.Mutex
	allowedFn := func() bool { mu.Lock(); defer mu.Unlock(); return allowed }

	got := make(chan *lease, 1)
	go func() {
		l, ok := q.acquire("local-0", true, allowedFn)
		if ok {
			got <- l
		}
		close(got)
	}()
	q.enqueue(testJob("a"), 8)
	select {
	case <-got:
		t.Fatal("acquire granted while disallowed")
	case <-time.After(20 * time.Millisecond):
	}
	mu.Lock()
	allowed = true
	mu.Unlock()
	q.broadcast()
	l := <-got
	if l == nil || string(l.job.key) != "a" {
		t.Fatalf("acquire after allow = %+v", l)
	}
}
