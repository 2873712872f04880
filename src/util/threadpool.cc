#include "threadpool.hh"

#include "logging.hh"

namespace vmargin::util
{

int
ThreadPool::defaultWorkerCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int workers)
    : statTasks_(obs::Registry::global().counter(
          "threadpool.tasks", obs::Stability::Sched)),
      statSteals_(obs::Registry::global().counter(
          "threadpool.steals", obs::Stability::Sched)),
      statIdleNs_(obs::Registry::global().counter(
          "threadpool.idle_ns", obs::Stability::Sched)),
      statQueuePeak_(
          obs::Registry::global().gauge("threadpool.queue_peak"))
{
    if (workers < 0)
        fatalError("threadpool: negative worker count");
    if (workers == 0)
        workers = defaultWorkerCount();
    queues_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    workers_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back(
            [this, i] { workerLoop(static_cast<size_t>(i)); });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (!task)
        panicf("threadpool: null task");
    size_t target;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++unfinished_;
        ++queued_;
        target = nextQueue_;
        nextQueue_ = (nextQueue_ + 1) % queues_.size();
        statQueuePeak_.max(static_cast<int64_t>(queued_));
    }
    statTasks_.inc();
    {
        std::lock_guard<std::mutex> lock(queues_[target]->mutex);
        queues_[target]->tasks.push_back(std::move(task));
    }
    workAvailable_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return unfinished_ == 0; });
}

bool
ThreadPool::takeTask(size_t self, std::function<void()> &out)
{
    // Own queue first, newest task (the cache-warm end)...
    {
        auto &own = *queues_[self];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            out = std::move(own.tasks.back());
            own.tasks.pop_back();
            return true;
        }
    }
    // ...then steal the oldest task from a sibling.
    for (size_t i = 1; i < queues_.size(); ++i) {
        auto &victim = *queues_[(self + i) % queues_.size()];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.tasks.empty()) {
            out = std::move(victim.tasks.front());
            victim.tasks.pop_front();
            statSteals_.inc();
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(size_t self)
{
    for (;;) {
        std::function<void()> task;
        if (takeTask(self, task)) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                --queued_;
            }
            task();
            std::lock_guard<std::mutex> lock(mutex_);
            if (--unfinished_ == 0)
                allDone_.notify_all();
            continue;
        }
        // queued_ may transiently exceed the takeable tasks (a
        // sibling holds one it has not yet booked); a spurious wake
        // just loops back to another steal attempt.
        std::unique_lock<std::mutex> lock(mutex_);
        if (stopping_)
            return;
        const uint64_t idleFrom =
            obs::SystemClock::instance().steadyNanos();
        workAvailable_.wait(lock, [this] {
            return stopping_ || queued_ > 0;
        });
        statIdleNs_.inc(obs::SystemClock::instance().steadyNanos() -
                        idleFrom);
    }
}

} // namespace vmargin::util
