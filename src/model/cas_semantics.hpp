// Sequential specification of the CAS operation and the deviating
// postconditions Φ′ of each functional fault kind (Sections 2, 3.3, 3.4).
//
// These evaluators are the executable form of the paper's Hoare triples:
// they let the verification layer check, for every observed operation,
// whether the standard postcondition Φ held, and if not, which structured
// fault the observation is consistent with (Definition 1).
#pragma once

#include <optional>

#include "model/fault_kind.hpp"
#include "model/value.hpp"

namespace ff::model {

/// Input parameters of one CAS invocation: old ← CAS(O, exp, val).
struct CasCall {
  Value expected;
  Value desired;

  friend constexpr bool operator==(const CasCall&, const CasCall&) noexcept =
      default;
};

/// Observed effect of one CAS invocation: register content before (R′) and
/// after (R) the operation, and the returned old value.
struct CasObservation {
  Value before;    ///< R′ — register content on entry
  Value after;     ///< R  — register content on return
  Value returned;  ///< old — the operation's output

  friend constexpr bool operator==(const CasObservation&,
                                   const CasObservation&) noexcept = default;
};

/// Result of applying the *correct* sequential specification.
struct CasEffect {
  Value after;
  Value returned;
  bool success;  ///< the new value was written
};

/// Sequential specification:
///   R′ = exp ? (R = val ∧ old = R′) : (R = R′ ∧ old = R′)
[[nodiscard]] constexpr CasEffect cas_apply(Value before,
                                            const CasCall& call) noexcept {
  if (before == call.expected) {
    return CasEffect{call.desired, before, true};
  }
  return CasEffect{before, before, false};
}

/// Effect of a CAS that suffers the overriding fault (§3.3):
///   Φ′: R = val ∧ old = R′  — the write happens unconditionally.
[[nodiscard]] constexpr CasEffect cas_apply_overriding(
    Value before, const CasCall& call) noexcept {
  return CasEffect{call.desired, before, true};
}

/// Effect of a CAS that suffers the silent fault (§3.4):
///   Φ′: R = R′ ∧ old = R′  — the write never happens.
[[nodiscard]] constexpr CasEffect cas_apply_silent(Value before,
                                                   const CasCall&) noexcept {
  return CasEffect{before, before, false};
}

/// Output of a CAS that suffers the invisible fault (§3.4): the register
/// behaves per spec, and the returned old value is off by one, so it
/// never equals the true content.
[[nodiscard]] constexpr Value invisible_return(Value before) noexcept {
  return Value::of(before.raw() + 1);
}

/// Standard postcondition Φ of CAS.
[[nodiscard]] constexpr bool satisfies_phi(const CasObservation& obs,
                                           const CasCall& call) noexcept {
  if (obs.before == call.expected) {
    return obs.after == call.desired && obs.returned == obs.before;
  }
  return obs.after == obs.before && obs.returned == obs.before;
}

/// The observation a CAS yields when it suffers a fault of `kind`: the Φ′
/// outcome the simulators branch on.  `written` is what an arbitrary
/// fault writes; the other kinds ignore it.  nullopt for a nonresponsive
/// fault, whose operation never returns.  Data corruption strikes between
/// operations (§3.1), so under it, as under kNone, the CAS itself
/// behaves per spec.
[[nodiscard]] constexpr std::optional<CasObservation> fault_outcome(
    FaultKind kind, Value before, const CasCall& call,
    Value written = Value::bottom()) noexcept {
  CasEffect effect = cas_apply(before, call);
  switch (kind) {
    case FaultKind::kOverriding:
      effect = cas_apply_overriding(before, call);
      break;
    case FaultKind::kSilent:
      effect = cas_apply_silent(before, call);
      break;
    case FaultKind::kInvisible:
      effect.returned = invisible_return(before);
      break;
    case FaultKind::kArbitrary:
      effect.after = written;
      break;
    case FaultKind::kNonresponsive:
      return std::nullopt;
    case FaultKind::kDataCorruption:
    case FaultKind::kNone:
      break;
  }
  return CasObservation{before, effect.after, effect.returned};
}

/// Definition 1: a fault of `kind` manifests iff its outcome violates Φ.
/// A nonresponsive fault always does, since no response satisfies Φ.
[[nodiscard]] constexpr bool fault_manifests(
    FaultKind kind, Value before, const CasCall& call,
    Value written = Value::bottom()) noexcept {
  const std::optional<CasObservation> obs =
      fault_outcome(kind, before, call, written);
  return !obs || !satisfies_phi(*obs, call);
}

/// A data corruption (§3.1) overwrites the content outside any operation;
/// it is a fault only when it changes the content.
[[nodiscard]] constexpr bool corruption_manifests(Value content,
                                                  Value written) noexcept {
  return written != content;
}

/// Deviating postcondition Φ′ of the given fault kind.  For kNone this is
/// Φ itself.  Arbitrary and data-corruption faults admit any observation
/// with a correct return value and any register content, per §3.4/§3.1.
[[nodiscard]] constexpr bool satisfies_phi_prime(
    FaultKind kind, const CasObservation& obs, const CasCall& call) noexcept {
  switch (kind) {
    case FaultKind::kNone:
      return satisfies_phi(obs, call);
    case FaultKind::kOverriding:
      return obs.after == call.desired && obs.returned == obs.before;
    case FaultKind::kSilent:
      return obs.after == obs.before && obs.returned == obs.before;
    case FaultKind::kInvisible:
      // Register behaves per spec; only the output deviates.
      return obs.after == cas_apply(obs.before, call).after;
    case FaultKind::kArbitrary:
      return obs.returned == obs.before;  // any written value allowed
    case FaultKind::kNonresponsive:
      return false;  // a responsive observation never matches
    case FaultKind::kDataCorruption:
      return true;  // arbitrary corruption admits anything
  }
  return false;
}

/// Classifies an observation against the fault taxonomy: returns kNone when
/// the standard postcondition held, otherwise the most specific structured
/// fault whose Φ′ the observation satisfies, falling back to kArbitrary /
/// kDataCorruption for unstructured deviations.
[[nodiscard]] constexpr FaultKind classify(const CasObservation& obs,
                                           const CasCall& call) noexcept {
  if (satisfies_phi(obs, call)) return FaultKind::kNone;
  // Ordered from most to least specific.
  if (obs.returned == obs.before) {
    if (satisfies_phi_prime(FaultKind::kOverriding, obs, call)) {
      return FaultKind::kOverriding;
    }
    if (satisfies_phi_prime(FaultKind::kSilent, obs, call)) {
      return FaultKind::kSilent;
    }
    return FaultKind::kArbitrary;
  }
  if (satisfies_phi_prime(FaultKind::kInvisible, obs, call)) {
    return FaultKind::kInvisible;
  }
  return FaultKind::kDataCorruption;
}

}  // namespace ff::model
