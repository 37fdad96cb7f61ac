// Denotational semantics of the WHEN-clause pattern operators
// (Section 3.3.2): SEQUENCE, ATLEAST, ATMOST, ALL, ANY, UNLESS,
// NOT(..., SEQUENCE(...)) and CANCEL-WHEN, as pure set comprehensions
// over ideal history tables.
//
// Predicate injection (Section 3.2): WHERE-clause predicates are passed
// in as callbacks evaluated inside the comprehensions - `positive` over
// the contributor tuple, `negative` over (contributor tuple, candidate
// negated event), so that value correlation composes correctly with
// negation.
#ifndef CEDR_DENOTATION_PATTERNS_H_
#define CEDR_DENOTATION_PATTERNS_H_

#include <functional>

#include "denotation/ideal.h"
#include "pattern/predicate.h"

namespace cedr {
namespace denotation {

/// SEQUENCE(E1, ..., Ek, w): tuples with strictly increasing Vs spanning
/// at most w. Output: Vs = ek.Vs, Ve = e1.Vs + w, Os/Oe from ek, lineage
/// [e1..ek], payloads concatenated under `output_schema` (pass nullptr to
/// concatenate without schema).
EventList Sequence(const std::vector<EventList>& inputs, Duration w,
                   const TuplePredicate& pred = TrueTuplePredicate(),
                   SchemaPtr output_schema = nullptr);

/// ATLEAST(n, E1, ..., Ek, w): n events from n distinct inputs with
/// strictly increasing Vs spanning at most w. Output: Vs = latest.Vs,
/// Ve = earliest.Vs + w, lineage in input order. `pred` sees the tuple
/// in Vs order as it grows.
EventList AtLeast(size_t n, const std::vector<EventList>& inputs, Duration w,
                  const TuplePredicate& pred = TrueTuplePredicate(),
                  SchemaPtr output_schema = nullptr);

/// ALL(E1, ..., Ek, w) = ATLEAST(k, E1, ..., Ek, w).
EventList All(const std::vector<EventList>& inputs, Duration w,
              const TuplePredicate& pred = TrueTuplePredicate(),
              SchemaPtr output_schema = nullptr);

/// ANY(E1, ..., Ek) = ATLEAST(1, E1, ..., Ek, 1).
EventList Any(const std::vector<EventList>& inputs,
              const TuplePredicate& pred = TrueTuplePredicate(),
              SchemaPtr output_schema = nullptr);

/// ATMOST(n, E1, ..., Ek, w): the paper defines this as sugar over a
/// sliding count aggregate. We realize it as: an output at each event e
/// (over the union of inputs) such that the number of input events in
/// (e.Vs - w, e.Vs] is at most n. The runtime operator is a NegationOp
/// whose NegationWindow::AtMost window is that pool.
EventList AtMost(size_t n, const std::vector<EventList>& inputs, Duration w,
                 const TuplePredicate& pred = TrueTuplePredicate());

/// UNLESS(E1, E2, w): an E1-derived output unless some E2 occurs with
/// e1.Vs < e2.Vs < e1.Vs + w (and passes `neg`). Output Ve = e1.Vs + w.
EventList Unless(const EventList& e1s, const EventList& e2s, Duration w,
                 const NegationPredicate& neg = TrueNegationPredicate());

/// The paper's UNLESS' variant: the negation scope is anchored at the
/// n-th contributor (1-based) of the E1 composite rather than at its
/// completion - no e2 with cbt[n].Vs < e2.Vs < cbt[n].Vs + w. Output Vs
/// is "the later one between the start valid time of E1 and the end of
/// the negation scope": max(cbt[n].Vs + w, e1.Vs); Ve stays e1.Vs + w
/// (an empty result interval means no output). E1 events whose lineage
/// is shorter than n produce nothing.
EventList UnlessPrime(const EventList& e1s, const EventList& e2s, size_t n,
                      Duration w,
                      const NegationPredicate& neg = TrueNegationPredicate());

/// NOT(E, SEQUENCE(...)): keeps sequence outputs es such that no E event
/// falls strictly between the earliest and latest contributor's Vs.
/// `sequence_outputs` must carry lineage (cbt).
EventList NotSequence(const EventList& negated,
                      const EventList& sequence_outputs,
                      const NegationPredicate& neg = TrueNegationPredicate());

/// CANCEL-WHEN(E1, E2): keeps e1 such that no e2 has
/// e1.rt < e2.Vs < e1.Vs (no canceling event during partial detection).
EventList CancelWhen(const EventList& e1s, const EventList& e2s,
                     const NegationPredicate& neg = TrueNegationPredicate());

}  // namespace denotation
}  // namespace cedr

#endif  // CEDR_DENOTATION_PATTERNS_H_
