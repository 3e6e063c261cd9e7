package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stressVal is the model every stress writer maintains: the value stored
// under k is always stressVal(k). A torn optimistic read — a value from a
// half-completed mutation or a value paired with the wrong key — is
// overwhelmingly likely to break the relation, so checking it on every
// Get/Scan turns the readers into a torn-read detector for the seqlock
// protocol.
func stressVal(k int64) int64 { return k*31 + 7 }

// TestOptimisticReadStress hammers Get and Scan against concurrent point
// updates, batch updates, rebalances and resizes, in every mode, validating
// all read results against the model — the torn-read detector for the
// seqlock protocol. The latched-fallback sub-tests run the same load with
// the seqlock attempt budget (PMA.attempts) set to 0, so every read is the
// same lookup made under the shared latch. Under -race every sub-test reads
// latched (the budget is 0; race_on.go), which is exactly the configuration
// the detector can verify; normal builds are where the seqlock itself is
// checked.
func TestOptimisticReadStress(t *testing.T) {
	for _, mode := range allModes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) { stressReads(t, mode, false, false) })
		t.Run(mode.String()+"-compressed", func(t *testing.T) { stressReads(t, mode, false, true) })
	}
	t.Run("latched-fallback", func(t *testing.T) { stressReads(t, ModeBatch, true, false) })
	t.Run("latched-fallback-compressed", func(t *testing.T) { stressReads(t, ModeBatch, true, true) })
}

func stressReads(t *testing.T, mode Mode, latched, compressed bool) {
	cfg := testConfig(mode)
	cfg.CompressedChunks = compressed
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if latched {
		p.attempts = 0
	}

	const domain = 1 << 14
	keys := make([]int64, 0, domain/2)
	vals := make([]int64, 0, domain/2)
	for k := int64(0); k < domain; k += 2 {
		keys = append(keys, k)
		vals = append(vals, stressVal(k))
	}
	p.PutBatch(keys, vals)
	p.Flush()

	dur := 600 * time.Millisecond
	if testing.Short() {
		dur = 150 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, scans atomic.Int64
	fail := make(chan string, 8)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// Point writers: churn inserts and deletes across the whole domain so
	// local and global rebalances fire constantly.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := seed
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				k := (rng >> 16) & (domain - 1)
				if i%3 == 0 {
					p.Delete(k)
				} else {
					p.Put(k, stressVal(k))
				}
			}
		}(int64(w + 1))
	}

	// Batch writer: block inserts and deletes big enough to force gate
	// hand-offs and grow/shrink resizes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		const block = 4096
		bk := make([]int64, block)
		bv := make([]int64, block)
		for round := int64(0); ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			base := (round * 7919) % domain
			for i := range bk {
				bk[i] = (base + int64(i)*3) % domain
				bv[i] = stressVal(bk[i])
			}
			if round%2 == 0 {
				p.PutBatch(bk, bv)
			} else {
				p.DeleteBatch(bk[: block/2 : block/2])
			}
		}
	}()

	// Get readers: any found value must satisfy the model.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				k := (rng >> 16) & (domain - 1)
				if v, ok := p.Get(k); ok && v != stressVal(k) {
					report("Get(%d) = %d, want %d (torn read)", k, v, stressVal(k))
					return
				}
				reads.Add(1)
			}
		}(int64(100 + r))
	}

	// Scanner: windows must come back strictly ascending, in range, and
	// model-consistent.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := int64(42)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rng = rng*6364136223846793005 + 1442695040888963407
			lo := (rng >> 16) & (domain - 1)
			hi := lo + 2048
			prev := int64(-1)
			ok := true
			p.Scan(lo, hi, func(k, v int64) bool {
				switch {
				case k < lo || k > hi:
					report("Scan[%d,%d] visited out-of-range key %d", lo, hi, k)
				case k <= prev:
					report("Scan[%d,%d] keys not strictly ascending: %d after %d", lo, hi, k, prev)
				case v != stressVal(k):
					report("Scan[%d,%d] value %d for key %d, want %d (torn read)", lo, hi, v, k, stressVal(k))
				default:
					prev = k
					return true
				}
				ok = false
				return false
			})
			if !ok {
				return
			}
			scans.Add(1)
		}
	}()

	time.Sleep(dur)
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatalf("mode %v (latched=%v): %s", mode, latched, msg)
	default:
	}
	p.Flush()
	if err := p.Validate(); err != nil {
		t.Fatalf("mode %v: %v", mode, err)
	}
	if reads.Load() == 0 || scans.Load() == 0 {
		t.Fatalf("mode %v: readers made no progress (reads=%d scans=%d)", mode, reads.Load(), scans.Load())
	}
	if latched {
		assertLatched(t, p)
	}
	t.Logf("mode %v latched=%v race=%v: %d gets, %d scans, stats %+v",
		mode, latched, raceEnabled, reads.Load(), scans.Load(), p.Stats())
}

// assertLatched fails tb unless p's seqlock attempt budget is still 0 and
// no read on p was served optimistically: a test or benchmark that set the
// budget to 0 cannot silently check or time the seqlock path instead.
func assertLatched(tb testing.TB, p *PMA) {
	tb.Helper()
	r := p.Stats().Reads
	if p.attempts != 0 || r.GetOptimistic != 0 || r.ScanChunksOptimistic != 0 {
		tb.Fatalf("latched run read optimistically: budget %d, %d gets and %d scan chunks optimistic",
			p.attempts, r.GetOptimistic, r.ScanChunksOptimistic)
	}
}

// TestReadDuringResizeHandOff pins down the retired-gate hand-off: while a
// batch writer forces the array through repeated grow and shrink resizes
// (which invalidate every gate and move its pairs into the new state),
// readers continuously Get and Scan a fixed set of canary keys that are
// never mutated. If the optimistic path ever validated a read against a
// retired gate — the array as it was before a resize, whose fences no
// longer say where a key lives — a canary would come back missing, twice,
// or out of order.
func TestReadDuringResizeHandOff(t *testing.T) {
	cfg := testConfig(ModeBatch)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Canaries are the odd keys; all transient churn uses even keys.
	const numCanaries = 64
	const spread = 10_000
	canaries := make([]int64, numCanaries)
	cvals := make([]int64, numCanaries)
	for i := range canaries {
		canaries[i] = int64(i)*spread + 1
		cvals[i] = stressVal(canaries[i])
	}
	p.PutBatch(canaries, cvals)
	p.Flush()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, 4)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// Get readers over the canaries.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := seed; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := canaries[i%numCanaries]
				v, ok := p.Get(k)
				if !ok {
					report("canary %d disappeared mid-resize", k)
					return
				}
				if v != stressVal(k) {
					report("canary %d = %d, want %d (retired-gate read?)", k, v, stressVal(k))
					return
				}
			}
		}(r * 7)
	}

	// Scanner: every full scan must surface exactly the canaries among the
	// odd keys, in order.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			seen := 0
			ok := true
			p.ScanAll(func(k, v int64) bool {
				if k&1 == 0 {
					return true // transient churn
				}
				if seen >= numCanaries || k != canaries[seen] {
					report("scan: unexpected odd key %d at canary position %d", k, seen)
					ok = false
					return false
				}
				if v != stressVal(k) {
					report("scan: canary %d = %d, want %d", k, v, stressVal(k))
					ok = false
					return false
				}
				seen++
				return true
			})
			if !ok {
				return
			}
			if seen != numCanaries {
				report("scan: saw %d canaries, want %d", seen, numCanaries)
				return
			}
		}
	}()

	// Resizer: a block big enough to force growth well past the canary
	// footprint, then deleted again to trigger the shrink path.
	const block = 6_000
	bk := make([]int64, block)
	bv := make([]int64, block)
	wantResizes := uint64(6)
	if testing.Short() {
		wantResizes = 2
	}
	deadline := time.Now().Add(20 * time.Second)
	for round := int64(0); p.Stats().Rebalance.Resizes < wantResizes && time.Now().Before(deadline); round++ {
		for i := range bk {
			bk[i] = ((round*31 + int64(i)*2) % (numCanaries * spread)) &^ 1
			bv[i] = stressVal(bk[i])
		}
		p.PutBatch(bk, bv)
		p.DeleteBatch(bk)
		// Round-trip the master so the asynchronous shrink request runs
		// before the next growth round (on a single-CPU box the busy
		// client loop can otherwise starve the master goroutine).
		p.Flush()
		select {
		case msg := <-fail:
			t.Fatal(msg)
		default:
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if got := p.Stats().Rebalance.Resizes; got < wantResizes {
		t.Fatalf("churn produced only %d resizes, want >= %d — test did not exercise the hand-off", got, wantResizes)
	}
	p.Flush()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredBufferNeverRewritten pins the rewiring contract of Section 3.1:
// a rebalance or resize copies a chunk once into a fresh buffer and swaps it
// in, and the buffer it replaces is never written again, so an optimistic
// reader still copying from a retired buffer reads the chunk as it was.
// Writes grow the array through resizes and global rebalances, then deletes
// shrink it; after every round each buffer that left the live gates is
// frozen, and no frozen buffer may serve a gate again or change.
func TestRetiredBufferNeverRewritten(t *testing.T) {
	p := newTest(t, ModeSync)
	live := func() map[*chunkBuf]bool {
		p.Flush()
		bufs := make(map[*chunkBuf]bool)
		for _, g := range p.state.Load().gates {
			bufs[g.buf] = true
		}
		return bufs
	}
	type frozen struct{ keys, vals []int64 }
	retired := make(map[*chunkBuf]frozen)
	prev := live()
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 60; round++ {
		for i := 0; i < 128; i++ {
			k := rng.Int63n(4096)
			if round < 40 {
				p.Put(k, k)
			} else {
				p.Delete(k)
			}
		}
		now := live()
		for b := range now {
			if _, ok := retired[b]; ok {
				t.Fatalf("round %d: a retired buffer serves a live gate again", round)
			}
		}
		for b := range prev {
			if !now[b] {
				retired[b] = frozen{slices.Clone(b.keys), slices.Clone(b.vals)}
			}
		}
		prev = now
	}
	for b, f := range retired {
		if !slices.Equal(b.keys, f.keys) || !slices.Equal(b.vals, f.vals) {
			t.Fatal("a retired buffer was written after it left its gate")
		}
	}
	rs := p.Stats().Rebalance
	if rs.Resizes < 4 || rs.Global == 0 || rs.Local == 0 || len(retired) == 0 {
		t.Fatalf("%+v, %d retired buffers: the writes did not exercise rebalances and resizes", rs, len(retired))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSeqlockVersionParity is the white-box protocol check: the version must
// be odd exactly while the latch is held exclusively, and shared holders
// leave it alone.
func TestSeqlockVersionParity(t *testing.T) {
	p := newTest(t, ModeSync)
	g := p.state.Load().gates[0]

	check := func(stage string, wantOdd bool) {
		t.Helper()
		if odd := g.version.Load()&1 == 1; odd != wantOdd {
			t.Fatalf("%s: version %d odd=%v, want odd=%v", stage, g.version.Load(), odd, wantOdd)
		}
	}
	check("initial", false)

	// What the client acquisitions and the one release do to the version is
	// TestEnter's; here, the rebalancer's.
	g.rebLock()
	check("after rebLock", true)
	g.release()
	check("after the rebalancer's release", false)

	g.lockShared()
	check("under shared latch", false)
	g.unlockShared()
}
