// A move-only `void()` callable with a small inline buffer — what the event
// queue stores instead of std::function, whose 16-byte buffer sends most
// simulator closures to the heap.
//
// A callable of at most kInlineBytes (8-byte aligned, nothrow-movable) is
// constructed inside the Action; the largest closures a trial schedules, a
// node timer with its fence and an alert retry, are 32 bytes. Anything
// larger falls back to one heap allocation, so every callable still works.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sld::sim {

class Action {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  Action() noexcept = default;

  /// Wraps any callable invocable as `void()` (implicit, like
  /// std::function, so call sites pass lambdas directly).
  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, Action> && std::is_invocable_v<D&>)
  Action(F&& f) {
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
    }
    ops_ = &kOps<D>;
  }

  Action(Action&& other) noexcept { take(other); }
  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;
  ~Action() { reset(); }

  /// Runs the callable; the Action must be non-empty.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the callable into `dst` and destroys it in `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  static constexpr std::size_t kAlign = alignof(void*);

  template <typename D>
  static constexpr bool kStoredInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= kAlign &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops make_ops() {
    if constexpr (kStoredInline<D>) {
      return Ops{[](void* p) { (*std::launder(static_cast<D*>(p)))(); },
                 [](void* dst, void* src) noexcept {
                   D* from = std::launder(static_cast<D*>(src));
                   ::new (dst) D(std::move(*from));
                   from->~D();
                 },
                 [](void* p) noexcept {
                   std::launder(static_cast<D*>(p))->~D();
                 }};
    } else {
      return Ops{[](void* p) { (**std::launder(static_cast<D**>(p)))(); },
                 [](void* dst, void* src) noexcept {
                   ::new (dst) D*(*std::launder(static_cast<D**>(src)));
                 },
                 [](void* p) noexcept {
                   delete *std::launder(static_cast<D**>(p));
                 }};
    }
  }

  template <typename D>
  static constexpr Ops kOps = make_ops<D>();

  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(buf_);
    ops_ = nullptr;
  }

  void take(Action& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  alignas(kAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace sld::sim
