package simclock

// UseHeapQueue makes every Engine built from now on run on the reference
// heap instead of the calendar queue, until the returned restore is
// called. Tests that use it must not run in parallel with other engine
// users.
func UseHeapQueue() (restore func()) {
	saved := newQueue
	newQueue = func() eventQueue { return &heapQueue{} }
	return func() { newQueue = saved }
}
