package dpr_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dpr"
)

func TestFacadeQuickstart(t *testing.T) {
	c, err := dpr.NewCluster(dpr.ClusterConfig{Shards: 2, CheckpointInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewSession(dpr.SessionConfig{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	val, found, err := s.Get([]byte("hello"))
	if err != nil || !found || string(val) != "world" {
		t.Fatalf("get: %q %v %v", val, found, err)
	}
	if _, found, _ := s.Get([]byte("missing")); found {
		t.Fatal("missing key found")
	}
	if err := s.WaitAllCommitted(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if cut, _ := c.CurrentCut(); len(cut) == 0 {
		t.Fatal("cut must be non-empty after commits")
	}
}

func TestFacadeCounters(t *testing.T) {
	c, err := dpr.NewCluster(dpr.ClusterConfig{Shards: 1, CheckpointInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, _ := c.NewSession(dpr.SessionConfig{BatchSize: 1})
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Add([]byte("ctr"), 10); err != nil {
			t.Fatal(err)
		}
	}
	val, found, err := s.Get([]byte("ctr"))
	if err != nil || !found {
		t.Fatal(err)
	}
	var n uint64
	for i := 0; i < 8; i++ {
		n |= uint64(val[i]) << (8 * i)
	}
	if n != 50 {
		t.Fatalf("counter = %d", n)
	}
	if err := s.Delete([]byte("ctr")); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := s.Get([]byte("ctr")); found {
		t.Fatal("deleted counter visible")
	}
}

func TestFacadeFailureSurfacesSurvival(t *testing.T) {
	// Cloud-SSD storage makes every seal a 2 ms device write, so the burst
	// issued just before the failure is still uncommitted when it fires: the
	// failure must erase something and a SurvivalError must say so.
	c, err := dpr.NewCluster(dpr.ClusterConfig{
		Shards: 2, CheckpointInterval: 5 * time.Millisecond, Storage: dpr.StorageCloudSSD,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, _ := c.NewSession(dpr.SessionConfig{BatchSize: 1})
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	if err := s.WaitAllCommitted(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	committed, _ := s.Committed()
	const volatile = 32
	for i := 0; i < volatile; i++ {
		if err := s.Put([]byte(fmt.Sprintf("volatile%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.InjectFailure(); err != nil {
		t.Fatal(err)
	}
	var surv *dpr.SurvivalError
	deadline := time.Now().Add(5 * time.Second)
	for surv == nil {
		if time.Now().After(deadline) {
			t.Fatal("failure never surfaced")
		}
		err := s.Put([]byte("probe"), []byte("x"))
		if err == nil {
			err = s.Drain()
		}
		if err == nil {
			_, err = s.Client().Session().RefreshCommit()
		}
		if err != nil {
			if !errors.As(err, &surv) {
				t.Fatalf("unexpected error: %v", err)
			}
			if !errors.Is(err, dpr.ErrRolledBack) {
				t.Fatal("survival errors must match ErrRolledBack")
			}
		}
	}
	if surv.SurvivingPrefix < committed {
		t.Fatalf("committed prefix lost: %d < %d", surv.SurvivingPrefix, committed)
	}
	if surv.SurvivingPrefix >= committed+volatile && len(surv.Exceptions) == 0 {
		t.Fatalf("nothing was erased (surviving prefix %d of %d issued): the burst committed before the failure",
			surv.SurvivingPrefix, committed+volatile)
	}
	s.Acknowledge()
	if err := s.Put([]byte("after"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitAllCommitted(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeColocated(t *testing.T) {
	c, err := dpr.NewCluster(dpr.ClusterConfig{Shards: 2, CheckpointInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewColocatedSession(0, dpr.SessionConfig{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 50; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitAllCommitted(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewColocatedSession(9, dpr.SessionConfig{}); err == nil {
		t.Fatal("out-of-range shard must error")
	}
}

func TestFacadeNoNetworkMode(t *testing.T) {
	c, err := dpr.NewCluster(dpr.ClusterConfig{
		Shards: 1, DisableNetwork: true, CheckpointInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.NewSession(dpr.SessionConfig{}); err == nil {
		t.Fatal("networked session on no-network cluster must error")
	}
	s, err := c.NewColocatedSession(0, dpr.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	val, found, err := s.Get([]byte("k"))
	if err != nil || !found || string(val) != "v" {
		t.Fatalf("%q %v %v", val, found, err)
	}
}

func TestFacadeStorageKinds(t *testing.T) {
	for _, kind := range []dpr.StorageKind{dpr.StorageNull, dpr.StorageLocalSSD, dpr.StorageCloudSSD} {
		c, err := dpr.NewCluster(dpr.ClusterConfig{
			Shards: 1, Storage: kind, CheckpointInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, _ := c.NewSession(dpr.SessionConfig{BatchSize: 1})
		s.Put([]byte("k"), []byte("v"))
		if err := s.WaitAllCommitted(15 * time.Second); err != nil {
			t.Fatalf("storage %d: %v", kind, err)
		}
		s.Close()
		c.Close()
	}
}

func TestFacadeFetchAdd(t *testing.T) {
	c, err := dpr.NewCluster(dpr.ClusterConfig{Shards: 1, CheckpointInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, _ := c.NewSession(dpr.SessionConfig{BatchSize: 1})
	defer s.Close()
	n, err := s.FetchAdd([]byte("seq"), 3)
	if err != nil || n != 3 {
		t.Fatalf("fetch-add: %d %v", n, err)
	}
	n, err = s.FetchAdd([]byte("seq"), 4)
	if err != nil || n != 7 {
		t.Fatalf("fetch-add: %d %v", n, err)
	}
}
