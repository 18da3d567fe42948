/// \file awaitables.h
/// Synchronization awaitables for simulation processes: condition variables
/// and one-shot futures/promises (RPC-style).
///
/// All awaitables unregister themselves on destruction, so frames can be torn
/// down at any point. Notification never resumes a waiter inline; waiters are
/// scheduled at the current simulated time and run after the notifier's event
/// completes, which both avoids re-entrancy and models message/IPC hand-off.

#ifndef PSOODB_SIM_AWAITABLES_H_
#define PSOODB_SIM_AWAITABLES_H_

#include <coroutine>
#include <optional>
#include <utility>

#include "sim/pool.h"
#include "sim/simulation.h"
#include "util/check.h"

namespace psoodb::sim {

/// A FIFO condition variable for simulation processes.
///
/// `co_await cv.Wait()` suspends until NotifyOne()/NotifyAll(). Waiters wake
/// in FIFO order. The caller must re-check its predicate after waking (wakeups
/// are "hints", exactly like a real condition variable).
class CondVar {
 public:
  explicit CondVar(Simulation& sim) : sim_(sim) {
    head_.prev = head_.next = &head_;
  }
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;
  ~CondVar() {
    // Orphan any remaining waiters so their frame destructors are safe even
    // if the CondVar dies first.
    for (Node* n = head_.next; n != &head_;) {
      Node* next = n->next;
      n->cv = nullptr;
      n->prev = n->next = nullptr;
      n = next;
    }
  }

  class [[nodiscard]] Awaiter;
  /// Returns an awaitable that suspends the caller until notified. Discarding
  /// the awaiter (not co_awaiting it) would silently skip the wait.
  [[nodiscard]] Awaiter Wait();

  /// Wakes the oldest waiter (if any). Returns true if one was woken.
  bool NotifyOne();

  /// Wakes all current waiters.
  void NotifyAll() {
    while (NotifyOne()) {
    }
  }

  /// Number of processes currently blocked on this CondVar.
  std::size_t waiters() const {
    std::size_t n = 0;
    for (Node* p = head_.next; p != &head_; p = p->next) ++n;
    return n;
  }

 private:
  struct Node {
    Node* prev = nullptr;
    Node* next = nullptr;
    std::coroutine_handle<> handle;
    CondVar* cv = nullptr;  // non-null while linked
    EventId sched = 0;      // non-zero once notified and scheduled
    bool fired = false;
  };

  void Link(Node* n) {
    n->cv = this;
    n->prev = head_.prev;
    n->next = &head_;
    head_.prev->next = n;
    head_.prev = n;
  }
  static void Unlink(Node* n) {
    n->prev->next = n->next;
    n->next->prev = n->prev;
    n->prev = n->next = nullptr;
    n->cv = nullptr;
  }

  Simulation& sim_;
  Node head_;  // sentinel of intrusive FIFO list

  friend class Awaiter;
};

class CondVar::Awaiter {
 public:
  explicit Awaiter(CondVar& cv) : cv_(&cv) {}
  Awaiter(const Awaiter&) = delete;
  Awaiter& operator=(const Awaiter&) = delete;
  ~Awaiter() {
    if (node_.cv != nullptr) {
      Unlink(&node_);
    } else if (!node_.fired && node_.sched != 0) {
      cv_->sim_.Cancel(node_.sched);
    }
  }

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    node_.handle = h;
    cv_->Link(&node_);
  }
  void await_resume() noexcept { node_.fired = true; }

 private:
  CondVar* cv_;
  Node node_;
};

inline CondVar::Awaiter CondVar::Wait() { return Awaiter(*this); }

inline bool CondVar::NotifyOne() {
  Node* n = head_.next;
  if (n == &head_) return false;
  Unlink(n);
  n->sched = sim_.ScheduleNow(n->handle);
  return true;
}

namespace detail {
/// Shared state of a Promise/Future pair. Intrusively refcounted (the
/// simulator is single-threaded, so a plain int — no shared_ptr control
/// block, no atomics) and allocated from the thread-local free-list arena:
/// every RPC in the model creates and destroys one of these.
template <typename T>
struct ChannelState {
  explicit ChannelState(Simulation& s) : sim(&s) {}

  static void* operator new(std::size_t n) { return PoolAlloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    PoolFree(p, n);
  }

  void Ref() { ++refs; }
  void Unref() {
    if (--refs == 0) delete this;
  }

  Simulation* sim;
  std::optional<T> value;
  std::coroutine_handle<> waiter;
  EventId sched = 0;
  bool delivered = false;
  int refs = 1;
};
}  // namespace detail

template <typename T>
class Promise;

/// One-shot future: `co_await fut` yields the value set on the paired
/// Promise. Await at most once. Used for RPC-style request/response between
/// simulation processes.
template <typename T>
class [[nodiscard]] Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ && state_->value.has_value(); }

  bool await_ready() const noexcept {
    return state_->value.has_value();
  }
  void await_suspend(std::coroutine_handle<> h) { state_->waiter = h; }
  T await_resume() {
    state_->delivered = true;
    PSOODB_CHECK(state_->value.has_value(),
                 "Future resumed with no value delivered");
    return std::move(*state_->value);
  }

  ~Future() {
    if (state_ != nullptr) {
      if (!state_->delivered) {
        state_->waiter = {};
        if (state_->sched != 0) state_->sim->Cancel(state_->sched);
      }
      state_->Unref();
    }
  }
  Future(Future&& other) noexcept
      : state_(std::exchange(other.state_, nullptr)) {}
  Future& operator=(Future&& other) noexcept {
    if (this != &other) {
      if (state_ != nullptr) state_->Unref();
      state_ = std::exchange(other.state_, nullptr);
    }
    return *this;
  }
  Future(const Future&) = delete;
  Future& operator=(const Future&) = delete;

 private:
  template <typename U>
  friend class Promise;
  /// Takes over one reference (the caller's).
  explicit Future(detail::ChannelState<T>* s) : state_(s) {}
  detail::ChannelState<T>* state_ = nullptr;
};

/// Producer side of a Future. Copyable; Set() exactly once.
template <typename T>
class Promise {
 public:
  explicit Promise(Simulation& sim)
      : state_(new detail::ChannelState<T>(sim)) {}

  ~Promise() {
    if (state_ != nullptr) state_->Unref();
  }
  Promise(const Promise& other) : state_(other.state_) {
    if (state_ != nullptr) state_->Ref();
  }
  Promise& operator=(const Promise& other) {
    if (this != &other) {
      if (other.state_ != nullptr) other.state_->Ref();
      if (state_ != nullptr) state_->Unref();
      state_ = other.state_;
    }
    return *this;
  }
  Promise(Promise&& other) noexcept
      : state_(std::exchange(other.state_, nullptr)) {}
  Promise& operator=(Promise&& other) noexcept {
    if (this != &other) {
      if (state_ != nullptr) state_->Unref();
      state_ = std::exchange(other.state_, nullptr);
    }
    return *this;
  }

  /// Obtains the (single) consumer future.
  [[nodiscard]] Future<T> GetFuture() {
    state_->Ref();
    return Future<T>(state_);
  }

  /// Delivers the value; wakes the awaiting process (if any) at now().
  void Set(T value) {
    PSOODB_CHECK(!state_->value.has_value(), "Promise::Set called twice");
    state_->value.emplace(std::move(value));
    if (state_->waiter) {
      state_->sched = state_->sim->ScheduleNow(state_->waiter);
      state_->waiter = {};
    }
  }

  bool has_value() const { return state_->value.has_value(); }

 private:
  detail::ChannelState<T>* state_ = nullptr;
};

}  // namespace psoodb::sim

#endif  // PSOODB_SIM_AWAITABLES_H_
