package horse_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"horse"
)

// recordDigest hashes flow records field by field, in order, with
// FNV-64a: the byte-identity contract of Records() in sixteen hex digits.
func recordDigest(recs []horse.FlowRecord) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range recs {
		put(uint64(r.ID))
		put(uint64(r.Arrival))
		put(uint64(r.End))
		put(math.Float64bits(r.SizeBits))
		put(math.Float64bits(r.SentBits))
		if r.Completed {
			put(1)
		} else {
			put(0)
		}
		h.Write([]byte(r.Outcome))
		put(uint64(r.PathLen))
		put(uint64(r.Punts))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenIXPDay runs a reduced simulated IXP day: a 40-member fabric
// replaying two hours of seeded traffic under the reactive ECMP
// controller, with stats sampling every ten minutes.
func goldenIXPDay(t *testing.T) []horse.FlowRecord {
	t.Helper()
	fab, err := horse.BuildIXP(horse.LargeIXP(40))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := horse.New(fab.Topo,
		horse.WithMiss(horse.MissController),
		horse.WithStatsEvery(10*horse.Minute),
		horse.WithController(horse.NewChain(&horse.ECMPLoadBalancer{})),
	)
	if err != nil {
		t.Fatal(err)
	}
	eng.Load(fab.ReplayTrace(40e9, 0.2, horse.Hour, 2*horse.Hour, 1))
	col, err := eng.Run(context.Background(), horse.Time(3*horse.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return col.Flows()
}

// goldenFatTreePacket runs a k=4 fat-tree at packet fidelity on the
// timing wheel, with pre-installed MAC routes and a seeded mixed
// CBR/TCP Poisson workload, at the given shard count.
func goldenFatTreePacket(t *testing.T, shards int) []horse.FlowRecord {
	t.Helper()
	topo := horse.FatTree(4, horse.Gig)
	eng, err := horse.New(topo,
		horse.WithFidelity(horse.Packet),
		horse.WithMiss(horse.MissDrop),
		horse.WithEventQueue(horse.EventQueueWheel),
		horse.WithShards(shards),
	)
	if err != nil {
		t.Fatal(err)
	}
	horse.InstallMACRoutes(eng.Network())
	eng.Load(horse.NewGenerator(1).PoissonArrivals(horse.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 40 * float64(len(topo.Hosts())), Horizon: 200 * horse.Millisecond,
		Sizes: horse.FixedSize(1e6), TCPFraction: 0.5, CBRRateBps: 2e7,
	}))
	col, err := eng.Run(context.Background(), horse.Time(2*horse.Second))
	if err != nil {
		t.Fatal(err)
	}
	return col.Flows()
}

// TestGoldenRecordDigests pins the records of a flow-level IXP run and a
// sharded packet-level fat-tree run to digests checked in beside it, so a
// change to the forwarding pipeline, the path walk or flow bookkeeping
// that moves any record fails here. Regenerate a digest only for a change
// that means to alter simulation results.
func TestGoldenRecordDigests(t *testing.T) {
	const (
		ixpDigest     = "63c67c2d205aae5b"
		fatTreeDigest = "969fe808859149e4"
	)
	t.Run("ixp-day", func(t *testing.T) {
		recs := goldenIXPDay(t)
		if got := recordDigest(recs); got != ixpDigest {
			t.Errorf("%d records, digest %s, want %s", len(recs), got, ixpDigest)
		}
	})
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("fattree-packet/shards=%d", shards), func(t *testing.T) {
			recs := goldenFatTreePacket(t, shards)
			if got := recordDigest(recs); got != fatTreeDigest {
				t.Errorf("%d records, digest %s, want %s", len(recs), got, fatTreeDigest)
			}
		})
	}
}
