/**
 * @file
 * Fixed-content Chase–Lev work-stealing deque of chunk indices.
 *
 * The scheduler preloads every deque with the chunk indices its
 * owning runner is responsible for, *before* any worker starts; no
 * pushes ever happen afterwards. That restriction removes the
 * hardest part of the classic Chase–Lev algorithm (a growing
 * circular buffer whose slots are recycled under concurrent reads):
 * the item array here is immutable while the deque is live, so slot
 * reads can never race a writer and the only synchronization left is
 * the top/bottom index handshake. Every operation uses seq_cst
 * atomics (no standalone fences), which keeps the algorithm exactly
 * analyzable by TSan — the scheduler-stress CI leg runs the whole
 * engine under -fsanitize=thread.
 *
 * Protocol: the owner pops from the *back* of the array (take), and
 * thieves race CAS on the *front* (steal). The scheduler stores each
 * runner's chunk list in reverse, so the owner executes its chunks
 * in ascending chunk-index order — under guided sizing that means
 * largest-first — while thieves strip the owner's latest (smallest)
 * chunks from the other end.
 *
 * Determinism note: which runner pops which chunk is intentionally
 * unspecified. Bit-identical results are guaranteed one level up by
 * the chunk *identity* contract (runtime/parallel.hh): boundaries
 * are a pure function of (n, grain) and reductions fold in ascending
 * chunk order, so assignment is free to race.
 */

#ifndef QPAD_RUNTIME_CHUNK_DEQUE_HH
#define QPAD_RUNTIME_CHUNK_DEQUE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qpad::runtime::detail
{

/** Work-stealing deque over a preloaded, immutable chunk list. */
class ChunkDeque
{
  public:
    /** take()/steal(): no item available (deque drained). */
    static constexpr std::size_t kEmpty = SIZE_MAX;
    /** steal(): lost a CAS race with another thief; retry. */
    static constexpr std::size_t kAbort = SIZE_MAX - 1;

    ChunkDeque() = default;
    ChunkDeque(const ChunkDeque &) = delete;
    ChunkDeque &operator=(const ChunkDeque &) = delete;

    /**
     * Preload the deque. Must happen-before any take/steal (the
     * scheduler publishes deques through the pool's offer mutex).
     * The owner's take() order is back-to-front, so pass the list
     * reversed if the owner should run it front-to-back.
     */
    void reset(std::vector<std::size_t> items)
    {
        items_ = std::move(items);
        // qpad-lint: allow(atomic-relaxed) "reset happens-before any
        // take/steal via the pool's offer mutex (see contract above)"
        top_.store(0, std::memory_order_relaxed);
        // qpad-lint: allow(atomic-relaxed) "same publication contract
        // as the top_ reset store"
        bottom_.store(std::ptrdiff_t(items_.size()),
                      std::memory_order_relaxed);
    }

    /** Owner-only pop from the back; kEmpty when drained. */
    std::size_t take()
    {
        // qpad-lint: allow(atomic-relaxed) "owner-only read of the
        // owner-only index; the seq_cst store below publishes it"
        std::ptrdiff_t b =
            bottom_.load(std::memory_order_relaxed) - 1;
        // The seq_cst store/load pair replaces the classic
        // algorithm's standalone fence: the reservation of slot b
        // must be globally ordered before the top read, or owner and
        // thief could both claim the last item.
        bottom_.store(b, std::memory_order_seq_cst);
        std::ptrdiff_t t = top_.load(std::memory_order_seq_cst);
        if (t < b)
            return items_[std::size_t(b)];
        if (t == b) {
            // Last item: race the thieves for it.
            std::size_t item = items_[std::size_t(b)];
            // qpad-lint: allow(atomic-relaxed) "CAS failure order:
            // a lost race consumes no data, we only restore bottom_"
            if (!top_.compare_exchange_strong(
                    t, t + 1, std::memory_order_seq_cst,
                    std::memory_order_relaxed))
                item = kEmpty; // a thief got there first
            // qpad-lint: allow(atomic-relaxed) "owner-only undo
            // store; the seq_cst store above orders it for thieves"
            bottom_.store(b + 1, std::memory_order_relaxed);
            return item;
        }
        // Already empty; undo the reservation.
        // qpad-lint: allow(atomic-relaxed) "owner-only undo
        // store; the seq_cst store above orders it for thieves"
        bottom_.store(b + 1, std::memory_order_relaxed);
        return kEmpty;
    }

    /** Thief pop from the front; kEmpty when drained, kAbort on a
     * lost race (caller should retry the sweep). */
    std::size_t steal()
    {
        std::ptrdiff_t t = top_.load(std::memory_order_seq_cst);
        std::ptrdiff_t b = bottom_.load(std::memory_order_seq_cst);
        if (t >= b)
            return kEmpty;
        // Reading the slot before the CAS is safe precisely because
        // items_ is immutable: a stale read is simply discarded when
        // the CAS fails.
        std::size_t item = items_[std::size_t(t)];
        // qpad-lint: allow(atomic-relaxed) "CAS failure order: a
        // failed steal discards the slot read and returns kAbort"
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
            return kAbort;
        return item;
    }

  private:
    std::vector<std::size_t> items_;
    // Separate cache lines: top_ is hammered by thieves, bottom_ by
    // the owner; sharing a line would bounce it on every operation.
    alignas(64) std::atomic<std::ptrdiff_t> top_{0};
    alignas(64) std::atomic<std::ptrdiff_t> bottom_{0};
};

} // namespace qpad::runtime::detail

#endif // QPAD_RUNTIME_CHUNK_DEQUE_HH
