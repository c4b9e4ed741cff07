package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"

	"filtermap/internal/plan"
)

// ring is a consistent-hash ring over worker IDs. Each member
// contributes ringVnodes virtual points; a shard key hashes to the first
// point clockwise, so membership changes move only the keys adjacent to
// the joining or leaving member's points. The ring decides each shard's
// *preferred* owner — leasing still hands any pending shard to whoever
// asks once the owner's own queue is empty (work-stealing), so the ring
// shapes locality rather than gating progress.
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash   uint64
	worker string
}

const ringVnodes = 64

// newRing builds a ring over the given member IDs. Order does not
// matter; an empty member list yields a ring that owns nothing.
func newRing(members []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(members)*ringVnodes)}
	for _, m := range members {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(m + "#" + strconv.Itoa(v)), worker: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on worker ID so equal hashes order deterministically.
		return r.points[i].worker < r.points[j].worker
	})
	return r
}

// owner returns the preferred worker for a shard key ("" when the ring
// is empty).
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].worker
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never errors
	return h.Sum64()
}

// shardKey is the ring key for one shard: kind plus the first piece of
// its probe-space slice. Job-independent, so repeated runs of the same
// plan land each product/ISP on the same worker (warm world replicas).
func shardKey(spec *plan.ShardSpec) string {
	key := spec.Kind
	if len(spec.Pieces) > 0 {
		key += "/" + spec.Pieces[0]
	}
	return key
}
