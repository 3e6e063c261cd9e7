package main

import "testing"

// streamHash folds the first n ops of every stream into one value, to show
// that the seed, and only the seed, fixes the load.
func streamHash(ks keyScheme, n int) uint64 {
	h := uint64(0)
	add := func(x int64) { h = mix(h, uint64(x)) }
	u, g, sc := newUpdateStream(ks), newGetStream(ks), newScanStream(ks)
	p, b := newIngestStream(ks, tagIngestPoint), newIngestStream(ks, tagIngestBatch)
	for i := 0; i < n; i++ {
		del, k := u.next()
		add(k)
		if del {
			add(1)
		}
		k, _ = g.next()
		add(k)
		lo, hi, _, _ := sc.next()
		add(lo)
		add(hi)
		add(p.point())
	}
	for i := 0; i < n/batchKeys+1; i++ {
		keys, _ := b.nextBatch()
		for _, k := range keys {
			add(k)
		}
	}
	return h
}

func TestSeedFixesTheOpStreams(t *testing.T) {
	a := streamHash(keyScheme{seed: 7, n: 1 << 12}, 20000)
	b := streamHash(keyScheme{seed: 7, n: 1 << 12}, 20000)
	c := streamHash(keyScheme{seed: 8, n: 1 << 12}, 20000)
	if a != b {
		t.Fatalf("same seed gave different op streams: %x vs %x", a, b)
	}
	if a == c {
		t.Fatalf("different seeds gave the same op streams: %x", a)
	}
}

// The key-scheme oracle against a brute-force set of the preloaded keys.
func TestKeyOracle(t *testing.T) {
	ks := keyScheme{seed: 42, n: 1 << 10}
	keys, vals := ks.preload()
	pre := map[int64]bool{}
	for i, k := range keys {
		if k&1 != 0 || k < 0 || k >= ks.span() {
			t.Fatalf("preloaded key %d is odd or out of range", k)
		}
		if i > 0 && k <= keys[i-1] {
			t.Fatalf("preloaded keys not ascending at %d", i)
		}
		if vals[i] != ks.val(k) {
			t.Fatalf("preloaded value of %d is not val(key)", k)
		}
		pre[k] = true
	}
	for k := int64(0); k < ks.span(); k++ {
		want := classAbsent
		switch {
		case k&1 == 1:
			want = classFresh
		case pre[k]:
			want = classPreloaded
		}
		if got := ks.classify(k); got != want {
			t.Fatalf("classify(%d) = %v, want %v", k, got, want)
		}
	}
	r := rng{1}
	for i := 0; i < 100000; i++ {
		x := r.next()
		if k := ks.absentKey(x); k&1 != 0 || pre[k] || k < 0 || k >= ks.span() {
			t.Fatalf("absentKey gave %d: odd, preloaded or out of range", k)
		}
		if k := ks.freshKey(x); k&1 != 1 || k < 0 || k >= ks.span() {
			t.Fatalf("freshKey gave %d: even or out of range", k)
		}
	}
	gs := newGetStream(ks)
	hits := 0
	for i := 0; i < 100000; i++ {
		k, hit := gs.next()
		if hit != pre[k] {
			t.Fatalf("get stream says hit=%v for key %d, brute force says %v", hit, k, pre[k])
		}
		if hit {
			hits++
		}
	}
	if hits < 78000 || hits > 82000 {
		t.Fatalf("get stream hit share %d/100000, want about 80 %%", hits)
	}
	ss := newScanStream(ks)
	for i := 0; i < 1000; i++ {
		lo, hi, width, _ := ss.next()
		n := int64(0)
		for k := lo; k <= hi; k++ {
			if pre[k] {
				n++
			}
		}
		if n != width || lo < 0 || hi >= ks.span() {
			t.Fatalf("scan window [%d,%d] holds %d preloaded keys, stream says %d", lo, hi, n, width)
		}
	}
}

// The bitset model against a map replayed op by op.
func TestReplayMatchesBruteForce(t *testing.T) {
	ks := keyScheme{seed: 3, n: 1 << 10}
	c := opCounts{updates: 3*updateRound + 1234, ingestPoints: 5000, ingestBatches: 7}
	want := map[int64]bool{}
	u := newUpdateStream(ks)
	for i := int64(0); i < c.updates; i++ {
		if del, k := u.next(); del {
			delete(want, k)
		} else {
			want[k] = true
		}
	}
	p := newIngestStream(ks, tagIngestPoint)
	for i := int64(0); i < c.ingestPoints; i++ {
		want[p.point()] = true
	}
	b := newIngestStream(ks, tagIngestBatch)
	for i := int64(0); i < c.ingestBatches; i++ {
		keys, vals := b.nextBatch()
		if len(keys) != batchKeys {
			t.Fatalf("batch of %d keys", len(keys))
		}
		for j, k := range keys {
			if k&1 != 1 || k < 0 || k >= ks.span() || vals[j] != ks.val(k) || (j > 0 && k < keys[j-1]) {
				t.Fatalf("batch key %d: even, out of range, unsorted or wrong value", k)
			}
			want[k] = true
		}
	}
	m := replay(ks, c)
	if m.count != int64(len(want)) {
		t.Fatalf("model holds %d keys, brute force %d", m.count, len(want))
	}
	for k := int64(1); k < ks.span(); k += 2 {
		if m.has(k) != want[k] {
			t.Fatalf("model.has(%d) = %v, brute force %v", k, m.has(k), want[k])
		}
	}
}
