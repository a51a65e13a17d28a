package simclock

import "container/heap"

// heapQueue is the reference binary-heap queue (container/heap): the
// oracle the calendar queue is property-tested against here and replayed
// against over whole workloads (TestQueueKindsAgree).
type heapQueue struct{ h eventHeap }

func (q *heapQueue) push(ev *Event) { heap.Push(&q.h, ev) }

func (q *heapQueue) pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*Event)
}

func (q *heapQueue) popLE(deadline Time) *Event {
	if len(q.h) == 0 || q.h[0].when > deadline {
		return nil
	}
	return heap.Pop(&q.h).(*Event)
}

func (q *heapQueue) remove(ev *Event) bool {
	heap.Remove(&q.h, ev.idx)
	ev.idx = -1
	return true
}

func (q *heapQueue) len() int { return len(q.h) }

type eventHeap []*Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventBefore(h[i], h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}
