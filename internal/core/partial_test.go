package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tpcc"
)

func TestWarehouseOfInserts(t *testing.T) {
	g := tpcc.NewGenerator(3, 20, tpcc.DefaultCalibration(), newTestRNG())
	for i := 0; i < 500; i++ {
		txn := g.Next(i % 200)
		home := (i % 200) / tpcc.ClientsPerWarehouse
		for _, w := range txn.WriteSet {
			wh, ok := tpcc.WarehouseOf(w)
			if !ok {
				t.Fatalf("write without warehouse: table %d", w.Table())
			}
			// Payment may hit a remote warehouse; all writes must
			// still resolve to SOME valid warehouse.
			if wh < 0 || wh >= 20 {
				t.Fatalf("warehouse out of range: %d (home %d)", wh, home)
			}
		}
	}
}

func newTestRNG() *sim.RNG { return sim.NewRNG(7) }
