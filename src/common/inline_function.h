// Move-only type-erased callable with an inline buffer.
//
// Like std::function, but a callable of up to `Capacity` bytes (and no
// stricter alignment than std::max_align_t, nothrow-movable) is stored in
// place instead of on the heap; larger ones fall back to one heap
// allocation. Move-only, so captures such as std::unique_ptr are allowed.
// A moved-from InlineFunction is empty.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace sedna {

template <typename Signature, std::size_t Capacity = 48>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT

  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<Fn, InlineFunction> &&
                std::is_invocable_r_v<R, Fn&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Whether a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool stores_inline() {
    return kFitsInline<std::decay_t<F>>;
  }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    /// Move-constructs the callable into `to` and destroys it in `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= Capacity &&
      alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* self, Args&&... args) -> R {
        return std::invoke(*static_cast<Fn*>(self),
                           std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        Fn* src = static_cast<Fn*>(from);
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* self, Args&&... args) -> R {
        return std::invoke(**static_cast<Fn**>(self),
                           std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        ::new (to) Fn*(*static_cast<Fn**>(from));
      },
      [](void* self) noexcept { delete *static_cast<Fn**>(self); },
  };

  void take(InlineFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(other.buf_, buf_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    // Cleared first: the callable's destructor may reach this object.
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->destroy(buf_);
  }

  alignas(std::max_align_t) std::byte buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace sedna
