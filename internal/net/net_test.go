package net

import (
	"testing"
)

func collect(b *Bus) *[]Message {
	var got []Message
	b.OnDeliver(func(m Message) { got = append(got, m) })
	return &got
}

func TestLatencyAndOrder(t *testing.T) {
	b := New(3, 10, nil)
	got := collect(b)
	b.Send(Message{Kind: Boundary, From: 0, To: 1, Txn: "a"})
	b.Send(Message{Kind: Boundary, From: 0, To: 2, Txn: "b"})
	if len(*got) != 0 {
		t.Fatal("nothing should deliver before the latency elapses")
	}
	if at := b.NextDelivery(); at != 10 {
		t.Fatalf("NextDelivery = %d, want 10", at)
	}
	b.Tick(9)
	if len(*got) != 0 {
		t.Fatal("delivered early")
	}
	b.Tick(10)
	if len(*got) != 2 || (*got)[0].Txn != "a" || (*got)[1].Txn != "b" {
		t.Fatalf("got %v, want a then b in send order", *got)
	}
	if b.NextDelivery() != 0 {
		t.Error("NextDelivery must be 0 when nothing is in flight")
	}
	st := b.Stats()
	if st.Sent != 2 || st.Delivered != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestZeroLatencyDeliversInline(t *testing.T) {
	b := New(2, 0, nil)
	got := collect(b)
	b.Send(Message{Kind: Finish, From: 0, To: 1, Txn: "a"})
	if len(*got) != 1 {
		t.Fatal("zero-latency send must deliver inline")
	}
	if len(b.inflight) != 0 {
		t.Error("nothing should stay in flight")
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	b := New(4, 5, nil)
	got := collect(b)
	b.Partition("split", []int{0, 1}, []int{2})
	if !b.Partitioned(0, 2) || b.Partitioned(0, 1) {
		t.Fatal("partition sides wrong")
	}
	// Processor 3 is unlisted: unaffected.
	if b.Partitioned(0, 3) || b.Partitioned(2, 3) {
		t.Fatal("unlisted processor must be unaffected")
	}
	b.Send(Message{Kind: Boundary, From: 0, To: 2}) // blocked
	b.Send(Message{Kind: Boundary, From: 0, To: 1}) // same side: flows
	b.Tick(5)
	if len(*got) != 1 || (*got)[0].To != 1 {
		t.Fatalf("got %v, want only the same-side message", *got)
	}
	if b.Stats().DroppedLink != 1 {
		t.Errorf("DroppedLink = %d, want 1", b.Stats().DroppedLink)
	}
	// A second named partition composes with the first.
	b.Partition("other", []int{1}, []int{3})
	if !b.Partitioned(1, 3) || !b.Partitioned(0, 2) {
		t.Fatal("named partitions must compose")
	}
	b.Heal("split")
	if b.Partitioned(0, 2) || !b.Partitioned(1, 3) {
		t.Fatal("heal must remove exactly the named partition")
	}
	b.Heal("other")
	b.Send(Message{Kind: Boundary, From: 0, To: 2})
	b.Tick(10)
	if len(*got) != 2 {
		t.Fatal("healed link must carry messages again")
	}
}

func TestCrashDropsInFlightMailbox(t *testing.T) {
	b := New(3, 10, nil)
	got := collect(b)
	b.Send(Message{Kind: Boundary, From: 0, To: 1, Txn: "dies"})
	b.Send(Message{Kind: Boundary, From: 0, To: 2, Txn: "lives"})
	b.Crash(1)
	if !b.Down(1) {
		t.Fatal("Down must report the crash")
	}
	b.Tick(10)
	if len(*got) != 1 || (*got)[0].Txn != "lives" {
		t.Fatalf("got %v: the crashed mailbox must die with its processor", *got)
	}
	if b.Stats().DroppedCrash != 1 {
		t.Errorf("DroppedCrash = %d, want 1", b.Stats().DroppedCrash)
	}
	// While down, sends to and from the processor are lost.
	b.Send(Message{Kind: Boundary, From: 0, To: 1})
	b.Send(Message{Kind: Boundary, From: 1, To: 0})
	if b.Stats().DroppedLink != 2 {
		t.Errorf("DroppedLink = %d, want 2", b.Stats().DroppedLink)
	}
	b.Restart(1)
	b.Send(Message{Kind: Boundary, From: 0, To: 1, Txn: "after"})
	b.Tick(20)
	if len(*got) != 2 || (*got)[1].Txn != "after" {
		t.Fatal("restarted processor must receive again")
	}
}

func TestCrashInFlightAtMaturity(t *testing.T) {
	// Crash between send and delivery, observed at Tick time: the packet
	// was kept in flight (Crash not called) but the destination went down
	// via a policy race — model by crashing after send, before Tick.
	b := New(2, 10, nil)
	got := collect(b)
	b.Send(Message{Kind: Finish, From: 0, To: 1})
	b.Crash(1)
	b.Restart(1)
	// The mailbox died with the crash even though the processor is back.
	b.Tick(10)
	if len(*got) != 0 {
		t.Fatal("a crash must destroy the in-flight mailbox for good")
	}
}

func TestPolicyDropAndExtraDelay(t *testing.T) {
	verdict := struct {
		drop  bool
		extra int64
	}{true, 0}
	b := New(2, 5, func(m Message) (bool, int64) { return verdict.drop, verdict.extra })
	got := collect(b)
	b.Send(Message{Kind: Boundary, From: 0, To: 1})
	if b.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", b.Stats().Dropped)
	}
	verdict.drop, verdict.extra = false, 20
	b.Send(Message{Kind: Boundary, From: 0, To: 1, Txn: "slow"})
	verdict.extra = 0
	b.Send(Message{Kind: Boundary, From: 0, To: 1, Txn: "fast"})
	b.Tick(5)
	if len(*got) != 1 || (*got)[0].Txn != "fast" {
		t.Fatalf("got %v: extra delay must reorder behind later sends", *got)
	}
	b.Tick(25)
	if len(*got) != 2 || (*got)[1].Txn != "slow" {
		t.Fatalf("got %v: the delayed message must still arrive", *got)
	}
}

func TestBroadcastSkipsSelf(t *testing.T) {
	b := New(4, 0, nil)
	got := collect(b)
	b.Broadcast(Message{Kind: Heartbeat, From: 2})
	if len(*got) != 3 {
		t.Fatalf("broadcast delivered %d, want 3", len(*got))
	}
	for _, m := range *got {
		if m.To == 2 {
			t.Fatal("broadcast must not deliver to the sender")
		}
	}
}

func TestSelfSendPanics(t *testing.T) {
	b := New(2, 0, nil)
	b.OnDeliver(func(Message) {})
	defer func() {
		if recover() == nil {
			t.Error("self-send must panic")
		}
	}()
	b.Send(Message{Kind: Boundary, From: 1, To: 1})
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{Heartbeat, Boundary, Finish, FinishAck, Probe, SyncRequest, SyncReply}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("kind %d: bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
}
