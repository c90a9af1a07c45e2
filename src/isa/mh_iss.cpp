#include "isa/mh_iss.hpp"

namespace osm::isa {

mh_iss::mh_iss(mem::main_memory& m, unsigned harts, mem::memory_model model,
               std::uint64_t sched_seed, bool use_decode_cache)
    : shared_(m, harts == 0 ? 1 : (harts > max_harts ? max_harts : harts), model),
      sched_seed_(sched_seed),
      rng_(sched_seed) {
    for (unsigned h = 0; h < shared_.harts(); ++h) {
        harts_.push_back(std::make_unique<iss>(shared_.port(h), host_,
                                               shared_.hart_reservation(h),
                                               use_decode_cache ? hart_decode_entries : 0));
    }
}

void mh_iss::load(const program_image& img) {
    // Straight into committed memory: through a hart port, TSO would
    // buffer the image.
    img.load_into(shared_.backing());
    host_.clear();
    for (unsigned h = 0; h < harts(); ++h) {
        arch_state st;
        st.pc = h < img.hart_entries.size() ? img.hart_entries[h] : img.entry;
        shared_.set_buffer(h, {});
        harts_[h]->restore_arch(st, 0, host_.console());
    }
    rng_ = xrandom(sched_seed_);
}

std::uint64_t mh_iss::total_retired() const noexcept {
    std::uint64_t n = 0;
    for (const auto& hart : harts_) n += hart->instret();
    return n;
}

bool mh_iss::all_halted() const noexcept {
    for (const auto& hart : harts_) {
        if (!hart->state().halted) return false;
    }
    return true;
}

bool mh_iss::step() {
    // Collect runnable harts in hart order so the PRNG draw sequence — and
    // therefore the schedule — depends only on (seed, machine state).
    unsigned runnable[max_harts];
    unsigned n = 0;
    for (unsigned h = 0; h < harts(); ++h) {
        if (!harts_[h]->state().halted) runnable[n++] = h;
    }
    if (n == 0) return false;

    if (shared_.model() == mem::memory_model::tso) {
        // Asynchronous store-buffer drain: with probability 1/4 commit the
        // oldest store of a randomly chosen buffered hart before executing.
        // This is what surfaces TSO-only outcomes (e.g. SB's 0/0): a store
        // can stay buffered while the other hart's load reads stale memory,
        // or commit early relative to its hart's later loads — never
        // reordered against the hart's *own* stores (FIFO drain).
        unsigned buffered[max_harts];
        unsigned m = 0;
        for (unsigned h = 0; h < harts(); ++h) {
            if (!shared_.buffer_empty(h)) buffered[m++] = h;
        }
        if (m != 0 && rng_.chance(1, 4)) {
            shared_.drain_one(buffered[rng_.next_below(m)]);
        }
    }

    harts_[runnable[rng_.next_below(n)]]->step();
    return true;
}

std::uint64_t mh_iss::run(std::uint64_t max_insts) {
    std::uint64_t done = 0;
    while (done < max_insts && step()) ++done;
    return done;
}

}  // namespace osm::isa
