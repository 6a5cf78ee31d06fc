package platform

import (
	"reflect"
	"testing"
)

// TestShardedWorkerCountBitIdentical pins the tentpole invariant at the
// platform level: a KSM run whose convergence passes fan out across a
// worker pool must produce Results bit-identical to the same configuration
// with one worker. Run with -race to also certify the fan-out is clean.
func TestShardedWorkerCountBitIdentical(t *testing.T) {
	t.Parallel()
	app := fastApp("img_dnn")
	base := fastConfig()
	base.ShardBits = 3

	cfg1 := base
	cfg1.ShardWorkers = 1
	one, err := Run(KSM, app, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := base
	cfg4.ShardWorkers = 4
	four, err := Run(KSM, app, cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("worker count changed results:\n1 worker: %+v\n4 workers: %+v", one, four)
	}
	if one.Footprint.Savings() <= 0 {
		t.Fatal("sharded KSM run produced no savings — nothing was exercised")
	}
}
