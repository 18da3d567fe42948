/// \file task.h
/// Coroutine task type for simulation processes.
///
/// A `Task` is a lazily-started coroutine. There are two ways to run one:
///   - `co_await` it from another Task: the child runs to completion and then
///     resumes the parent (symmetric transfer). The parent owns the child's
///     frame; destroying the parent frame destroys the child recursively.
///   - `Simulation::Spawn(Task)`: the simulation takes ownership and the task
///     becomes a detached root process; its frame self-destroys on completion.
///
/// Aborts travel as values, not exceptions. A task that must stop because its
/// transaction aborts runs `co_await EndAborted()`: it ends there, and
/// `co_await` on it evaluates to true in the awaiting parent, which runs its
/// abort branch. A task that runs to its end evaluates to false. There is no
/// exception channel: an exception escaping a task's body terminates the
/// process (`unhandled_exception`), as does `EndAborted` in a detached
/// process, which has no awaiter to take it.
///
/// An abort branch binds the outcome in the `if`'s init-statement:
///
///   if (const bool aborted = co_await Child(); aborted) { ... }
///
/// never `if (co_await Child())`: GCC 12 miscompiles a condition that awaits
/// a temporary outside a loop (the coroutine's body never runs), and a
/// declaration as the condition warns as unused.
///
/// Teardown safety: destroying a suspended Task frame runs the destructors of
/// in-frame awaitables. Every awaitable in this library unregisters itself
/// from whatever queue it is waiting in, so a `Simulation` (and all of its
/// processes) can be destroyed at any point mid-run without dangling handles.

#ifndef PSOODB_SIM_TASK_H_
#define PSOODB_SIM_TASK_H_

#include <coroutine>
#include <cstdlib>
#include <utility>

#include "sim/pool.h"

namespace psoodb::sim {

class Task;

namespace detail {

struct TaskPromise {
  /// Coroutine frames are allocated and torn down once per simulated
  /// process — millions of times per run — so they come from the
  /// thread-local free-list arena (sim/pool.h) instead of the global
  /// allocator. The compiler passes the full frame size here.
  static void* operator new(std::size_t n) { return detail::PoolAlloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    detail::PoolFree(p, n);
  }

  /// Coroutine to resume when this task completes (the awaiting parent).
  std::coroutine_handle<> continuation;
  /// Intrusive links in the owner's detached-root list (set by
  /// Simulation::Spawn). `root_head` points at the list's head pointer, so
  /// completion unlinks in O(1) with no owner type dependency and no
  /// allocation — spawning is on the per-message hot path.
  TaskPromise* root_prev = nullptr;
  TaskPromise* root_next = nullptr;
  TaskPromise** root_head = nullptr;
  /// True once detached via Simulation::Spawn: the final awaiter destroys the
  /// frame itself and unlinks it from the owner's root list.
  bool detached = false;
  /// Set when the task ended at `co_await EndAborted()` rather than at its
  /// end; what `co_await` on the task evaluates to.
  bool aborted = false;

  Task get_return_object();
  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<TaskPromise> h) noexcept {
      TaskPromise& p = h.promise();
      std::coroutine_handle<> cont =
          p.continuation ? p.continuation : std::noop_coroutine();
      if (p.detached) {
        if (p.root_prev != nullptr) {
          p.root_prev->root_next = p.root_next;
        } else {
          *p.root_head = p.root_next;
        }
        if (p.root_next != nullptr) p.root_next->root_prev = p.root_prev;
        h.destroy();
      }
      return cont;
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void return_void() noexcept {}
  /// Nothing in the simulator throws through a task; one that does is a bug
  /// with no awaiter prepared for it.
  void unhandled_exception() noexcept { std::abort(); }
};

/// The awaiter of EndAborted(): marks the task aborted and hands control to
/// its awaiter, leaving the frame suspended here for its owning Task to
/// destroy (at the end of the awaiting full-expression, which runs the
/// destructors of the locals still in scope).
struct AbortAwaiter {
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<TaskPromise> h) noexcept {
    TaskPromise& p = h.promise();
    // A detached process has nobody to hand the abort to.
    if (p.detached) std::abort();
    p.aborted = true;
    return p.continuation ? p.continuation : std::noop_coroutine();
  }
  void await_resume() const noexcept {}  // never resumed
};

}  // namespace detail

/// `co_await EndAborted()` ends the running task with an aborted outcome:
/// nothing after it runs, and its awaiter's `co_await` evaluates to true.
inline detail::AbortAwaiter EndAborted() { return {}; }

/// A simulation process. See file comment for ownership rules.
///
/// [[nodiscard]]: a Task that is neither co_awaited, Spawn'ed, nor stored
/// is destroyed before it ever runs — the coroutine silently does nothing
/// (the DROPPED-TASK class in tools/analyzer).
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise;

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  /// Releases ownership of the coroutine frame (used by Simulation::Spawn).
  std::coroutine_handle<promise_type> Release() {
    return std::exchange(handle_, {});
  }

  /// Awaiting a Task starts it and suspends the awaiter until it completes
  /// or aborts; the `co_await` evaluates to true if it aborted.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const noexcept { return !child || child.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        return child;  // symmetric transfer: start the child
      }
      bool await_resume() const noexcept {
        return child && child.promise().aborted;
      }
    };
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

namespace detail {
inline Task TaskPromise::get_return_object() {
  return Task(std::coroutine_handle<TaskPromise>::from_promise(*this));
}
}  // namespace detail

}  // namespace psoodb::sim

#endif  // PSOODB_SIM_TASK_H_
