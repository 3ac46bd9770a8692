/**
 * @file
 * Thread start-up of host::runIndexed, the worker pool behind
 * runPaired, runSweep, the fleet's shard loop and the device
 * profiler: the calling thread is one of the workers, and a helper
 * thread that fails to start surfaces as std::system_error after the
 * started helpers are joined, instead of std::terminate. This binary
 * wraps pthread_create so the tests can count thread starts and make
 * one of them fail.
 */

#include <gtest/gtest.h>

#include <dlfcn.h>
#include <pthread.h>

#include <atomic>
#include <cerrno>
#include <system_error>

#include "host/sweep.hh"

namespace {

std::atomic<int> g_starts{0};
/** Index of the thread start that fails; -1 lets every start run. */
std::atomic<int> g_failStart{-1};

} // namespace

extern "C" int
pthread_create(pthread_t *thread, const pthread_attr_t *attr,
               void *(*start)(void *), void *arg) noexcept
{
    using Create = int (*)(pthread_t *, const pthread_attr_t *,
                           void *(*)(void *), void *);
    static const Create real = reinterpret_cast<Create>(
        dlsym(RTLD_NEXT, "pthread_create"));
    if (g_starts.fetch_add(1) == g_failStart.load())
        return EAGAIN;
    return real(thread, attr, start, arg);
}

namespace {

using namespace iocost;

TEST(RunIndexed, CallerIsOneOfTheWorkers)
{
    struct Case
    {
        size_t count;
        unsigned jobs;
        int starts;
    };
    for (const Case &c : {Case{8, 4, 3}, Case{8, 1, 0}, Case{8, 0, 0},
                          Case{2, 4, 1}, Case{0, 4, 0}}) {
        g_starts = 0;
        std::atomic<size_t> ran{0};
        host::runIndexed(c.count, c.jobs, [&](size_t) { ++ran; });
        EXPECT_EQ(ran.load(), c.count);
        EXPECT_EQ(g_starts.load(), c.starts)
            << c.count << " tasks on " << c.jobs << " jobs";
    }
}

TEST(RunIndexed, FailedThreadStartJoinsStartedWorkers)
{
    // Failing the first start leaves nothing to join; failing a
    // later one must join the helpers already running.
    for (int fail : {0, 1, 2}) {
        g_starts = 0;
        g_failStart = fail;
        std::atomic<size_t> ran{0};
        EXPECT_THROW(host::runPaired(8, 4,
                                     [&](size_t c) {
                                         ++ran;
                                         return c;
                                     }),
                     std::system_error)
            << "thread start " << fail << " failed";
        g_failStart = -1;
        EXPECT_EQ(g_starts.load(), fail + 1);
        // Helpers that started drained the work before the join.
        EXPECT_EQ(ran.load(), fail == 0 ? 0u : 8u);
    }
}

} // namespace
