/**
 * @file
 * A std::mutex wrapper that Clang Thread Safety Analysis can see.
 *
 * libstdc++'s std::mutex / std::lock_guard / std::unique_lock carry no
 * capability annotations, so locking through them hides the critical
 * section from the analysis and every GUARDED_BY field they protect
 * reads as unprotected. Blocking paths that genuinely need a mutex (the
 * watchdog's poll sleep — a spinlock cannot park on a condition
 * variable) use this annotated wrapper instead; spinlock-guarded state
 * keeps using Spinlock/SpinGuard (common/spinlock.h).
 *
 * Condition-variable waits go through Mutex::WaitFor rather than a bare
 * std::unique_lock: the unique_lock dance would call the annotated
 * unlock()/lock() from inside unannotated std headers and confuse the
 * analysis, while WaitFor keeps the wait inside one REQUIRES(this)
 * method whose body the analysis accepts as-is. The wait's internal
 * release/reacquire is invisible to the analysis, which is sound: the
 * capability is held again when WaitFor returns, and any guarded state
 * read after it reflects a post-reacquire view exactly as with a raw
 * condition-variable wait.
 */
#ifndef FRUGAL_COMMON_MUTEX_H_
#define FRUGAL_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "frugal/thread_safety.h"

namespace frugal {

/** Annotated blocking mutex (see file comment). */
class FRUGAL_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() FRUGAL_ACQUIRE() { mutex_.lock(); }
    void unlock() FRUGAL_RELEASE() { mutex_.unlock(); }

    [[nodiscard]] bool
    try_lock() FRUGAL_TRY_ACQUIRE(true)
    {
        return mutex_.try_lock();
    }

    /**
     * Waits on `cv` for up to `timeout`, releasing the mutex while
     * parked and holding it again on return (both the timeout and the
     * notified case). Spurious wakeups are possible, as with any
     * condition-variable wait — re-check the predicate under the lock.
     */
    template <typename Rep, typename Period>
    std::cv_status
    WaitFor(std::condition_variable &cv,
            const std::chrono::duration<Rep, Period> &timeout)
        FRUGAL_REQUIRES(this)
    {
        std::unique_lock<std::mutex> held(mutex_, std::adopt_lock);
        const std::cv_status status = cv.wait_for(held, timeout);
        held.release();
        return status;
    }

  private:
    std::mutex mutex_;
};

/** Scoped Mutex holder — the annotated std::lock_guard replacement. */
class FRUGAL_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) FRUGAL_ACQUIRE(mutex) : mutex_(mutex)
    {
        mutex_.lock();
    }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    ~MutexLock() FRUGAL_RELEASE() { mutex_.unlock(); }

  private:
    Mutex &mutex_;
};

}  // namespace frugal

#endif  // FRUGAL_COMMON_MUTEX_H_
