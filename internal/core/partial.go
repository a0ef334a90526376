package core

import (
	"repro/internal/dbsm"
	"repro/internal/runtimeapi"
	"repro/internal/tpcc"
	"repro/internal/xgroup"
)

// Group-mode partitioning (partial replication): the replicas split into
// independent replication groups, each owning a stripe of warehouses, and
// internal/xgroup fixes the placement so every site derives identical group
// topology. The classic model is the single group holding every site.

// siteGroup maps a 1-based global site id to its 1-based group (1 when the
// model runs single-group).
func (m *Model) siteGroup(sid int32) int {
	if m.groups <= 1 {
		return 1
	}
	return xgroup.GroupOfSite(int(sid), m.perGroup)
}

// groupMembers lists a group's node ids in ascending order.
func (m *Model) groupMembers(g int) []runtimeapi.NodeID {
	lo, hi := xgroup.GroupSites(g, m.perGroup)
	out := make([]runtimeapi.NodeID, 0, hi-lo+1)
	for id := lo; id <= hi; id++ {
		out = append(out, runtimeapi.NodeID(id))
	}
	return out
}

// warehouseClassifier builds the tuple→group classifier the replicas split
// certification messages with. The item catalog (no warehouse) classifies to
// 0: replicated in every group, folded into a transaction's home part.
func warehouseClassifier(groups int) func(dbsm.TupleID) int {
	return func(id dbsm.TupleID) int {
		wh, ok := tpcc.WarehouseOf(id)
		if !ok {
			return 0
		}
		return xgroup.WarehouseGroup(wh, groups)
	}
}
