package ckpt

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestIdentityVectors pins the identity hash to XXH64 with seed 0: the
// spec's published sums, plus inputs that end inside every tail branch.
func TestIdentityVectors(t *testing.T) {
	for _, v := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"abc", 0x44bc2cf5ad770999},
		{"asdf", 0x415872f599cea71e},
		// 39 and 63 bytes: whole stripes, then 8-, 4- and 1-byte tail steps.
		{"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
		{"Call me Ishmael. Some years ago--never mind how long precisely-", 0x02a2e85470d6fd96},
	} {
		if got := checksumOf([]byte(v.in)); got != v.want {
			t.Errorf("checksumOf(%q) = %016x, want %016x", v.in, got, v.want)
		}
	}
}

// TestIdentitySplitInvariance: however a stream is cut into writes — empty
// ones, tails shorter than a stripe, a state reused after reset — the sum is
// the one-shot sum.
func TestIdentitySplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	d := newXXH64()
	for round := 0; round < 400; round++ {
		buf := make([]byte, rng.Intn(300))
		if round%8 == 0 {
			buf = make([]byte, 4096+rng.Intn(4096))
		}
		rng.Read(buf)
		want := checksumOf(buf)

		d.reset()
		for rest := buf; ; {
			n := rng.Intn(70)
			if rng.Intn(4) == 0 {
				n = rng.Intn(1200)
			}
			if n > len(rest) {
				n = len(rest)
			}
			d.write(rest[:n])
			if rest = rest[n:]; len(rest) == 0 {
				break
			}
		}
		if got := d.sum64(); got != want {
			t.Fatalf("round %d: %d bytes written in pieces sum to %016x, whole to %016x", round, len(buf), got, want)
		}
		if again := d.sum64(); again != want {
			t.Fatalf("round %d: second sum64 gave %016x, first %016x", round, again, want)
		}
	}
}

// refFNV1a is the byte-serial hash the identity passes used to run: one
// dependent multiply per byte. It stays as the yardstick for the ratio gate.
func refFNV1a(p []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range p {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

var identitySink uint64

// BenchmarkIdentityPassRatio is a gate (b.Fatalf), not a measurement: the
// identity pass over 16 MiB must run at least four times as fast as a
// byte-serial FNV-1a over the same bytes in the same process — a ratio, so a
// slow or shared host moves both sides together. It is a benchmark so that
// `go test ./...` asserts nothing about host speed; CI runs it by name with
// -benchtime=1x, without -race (the detector charges per load, not per byte).
func BenchmarkIdentityPassRatio(b *testing.B) {
	buf := make([]byte, 16<<20)
	rand.New(rand.NewSource(1)).Read(buf)
	best := func(pass func()) time.Duration {
		fastest := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			pass()
			fastest = min(fastest, time.Since(t0))
		}
		return fastest
	}
	mbps := func(d time.Duration) float64 { return float64(len(buf)) / 1e6 / d.Seconds() }
	for i := 0; i < b.N; i++ {
		serial := best(func() { identitySink += refFNV1a(buf) })
		block := best(func() {
			cw := newCountWriter(nil)
			cw.Write(buf)
			identitySink += cw.h.sum64()
		})
		if serial < 4*block {
			b.Fatalf("identity pass took %v over 16 MiB, byte-serial FNV-1a %v: want at least 4x faster", block, serial)
		}
		b.ReportMetric(mbps(block), "MB/s")
		b.ReportMetric(mbps(serial), "fnv1a-MB/s")
		b.ReportMetric(float64(serial)/float64(block), "x-fnv1a")
	}
}

// TestIdentityOldStoreFailsClosed: a manifest record sealed under the old
// FNV-1a checksum is refused as corrupted before its gob is decoded, which
// is all FORMAT.md promises about a store written before the hash changed.
func TestIdentityOldStoreFailsClosed(t *testing.T) {
	man, _ := commitPaged(t, NewMemStore(), 0, nil, pagedImage(2, 3))
	rec, err := EncodeManifestRecord(man)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifestRecord(rec); err != nil {
		t.Fatalf("fresh record does not decode: %v", err)
	}
	binary.LittleEndian.PutUint64(rec[12:20], refFNV1a(rec[20:]))
	if _, err := DecodeManifestRecord(rec); err == nil || !strings.Contains(err.Error(), "manifest record corrupted") {
		t.Fatalf("record under the old checksum: %v, want it refused as corrupted", err)
	}
}
