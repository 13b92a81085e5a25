package obs

import "time"

// epoch is the origin of Mono's readings, taken once per process.
var epoch = time.Now()

// Mono returns a monotonic clock reading: the time since the process
// started. The difference of two readings is the interval time.Since
// would measure between them, and a reading costs one monotonic clock
// read where time.Now also reads the wall clock (on a 2-vCPU linux/amd64
// host about 37 ns against 70). The request path stamps its starts with
// it: it needs intervals, never the time of day.
func Mono() time.Duration { return time.Since(epoch) }
