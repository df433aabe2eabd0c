// Compiles one core's source text twice: as coroutines for a backend whose
// operations suspend (hsim::SimBackend), and as plain functions for a
// backend whose operations are done when they return (NativeBackend,
// natively and under hcheck).  See backend.h for the two concepts.
//
// A core spells co_await as HLOCK_AWAIT and co_return as HLOCK_RETURN, and
// constrains each template with `requires HLOCK_PASS<B>`.  The suspending
// pass expands these to co_await, co_return and SuspendingBackend, which is
// the coroutine text the simulator has always run.  The plain pass expands
// them to nothing, return and PlainBackend.
//
// A core header (mcs.h is one) declares its primary template in its guarded
// part, then includes itself through this file from inside its namespace,
// with HLOCK_TWO_PASS_SOURCE naming the header.  Its part after the guard,
// under #ifdef HLOCK_PASS, holds the constrained partial specialization and
// includes nothing.  This file has no include guard.

#ifdef HLOCK_PASS
#error "two_pass.h included from inside a core pass"
#endif

#define HLOCK_PASS ::hlock::algo::SuspendingBackend
#define HLOCK_AWAIT co_await
#define HLOCK_RETURN co_return
#include HLOCK_TWO_PASS_SOURCE
#undef HLOCK_PASS
#undef HLOCK_AWAIT
#undef HLOCK_RETURN

#define HLOCK_PASS ::hlock::algo::PlainBackend
#define HLOCK_AWAIT
#define HLOCK_RETURN return
#include HLOCK_TWO_PASS_SOURCE
#undef HLOCK_PASS
#undef HLOCK_AWAIT
#undef HLOCK_RETURN

#undef HLOCK_TWO_PASS_SOURCE
