//! Widening accumulators: machine-word counting with transparent
//! promotion to [`Nat`].
//!
//! The counting kernels in `bagcq-homcount` spend almost all of their
//! time incrementing and multiplying counts that comfortably fit a
//! machine word — yet the paper's constructions can push any of those
//! counts past `u64`, past `u128`, past anything fixed-width. [`Acc`] is
//! the resolution: a three-tier accumulator (`u64` → `u128` → [`Nat`])
//! whose arithmetic is *checked* at every step and widens the
//! representation exactly when an operation would overflow. Promotion is
//! value-preserving, so an `Acc`-driven count is bit-identical to the
//! same count run entirely in [`Nat`] — never wrong, only fast.
//!
//! The [`Accumulator`] trait abstracts the handful of operations the
//! counting loops need, with implementations for both [`Nat`] (the
//! reference arbitrary-precision path) and [`Acc`] (the fast path). The
//! counting kernels are written once against the trait and run over
//! [`Acc`]; the tests check every [`Acc`] operation against [`Nat`].
//!
//! Every representation-widening event bumps a process-global counter
//! readable through [`acc_promotions`] — the experiment binaries report
//! it so a benchmark can show not just *that* the fast path is fast but
//! *how often* it had to leave the machine word.

use crate::nat::Nat;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global count of representation promotions (`u64 → u128` and
/// `u128 → Nat`) performed by [`Acc`] arithmetic since process start.
static PROMOTIONS: AtomicU64 = AtomicU64::new(0);

/// Total [`Acc`] promotions since process start (monotonic; shared by
/// every thread). Report deltas around a workload to attribute
/// promotions to it.
pub fn acc_promotions() -> u64 {
    PROMOTIONS.load(Ordering::Relaxed)
}

#[inline]
fn note_promotion() {
    PROMOTIONS.fetch_add(1, Ordering::Relaxed);
}

/// The operations a counting kernel needs from its accumulator.
///
/// Implemented by [`Nat`] (the arbitrary-precision reference path) and
/// [`Acc`] (the checked machine-word fast path). All implementations are
/// exact; the kernels' results are independent of which one runs.
pub trait Accumulator: Clone {
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// Is this exactly zero?
    fn is_zero(&self) -> bool;
    /// Adds 1 (the per-homomorphism increment of the counting loops).
    fn add_one(&mut self);
    /// Adds another accumulator's value.
    fn add_assign_acc(&mut self, other: &Self);
    /// Multiplies by another accumulator's value.
    fn mul_assign_acc(&mut self, other: &Self);
    /// Multiplies by an arbitrary-precision natural (free-variable
    /// factors are produced as [`Nat`] regardless of accumulator).
    fn mul_assign_nat(&mut self, n: &Nat);
    /// Bytes of count material this value holds (for memory-gauge
    /// charges): the machine-word footprint while a fast-path value
    /// still fits one, the limb bytes once it is arbitrary-precision.
    /// Never zero for a nonzero count, so a configured byte budget
    /// applies uniformly across backends.
    fn heap_bytes(&self) -> u64;
    /// The exact value as a [`Nat`].
    fn into_nat(self) -> Nat;
}

impl Accumulator for Nat {
    fn zero() -> Self {
        Nat::zero()
    }

    fn one() -> Self {
        Nat::one()
    }

    fn is_zero(&self) -> bool {
        Nat::is_zero(self)
    }

    #[inline]
    fn add_one(&mut self) {
        self.add_assign_u64(1);
    }

    fn add_assign_acc(&mut self, other: &Self) {
        self.add_assign_ref(other);
    }

    fn mul_assign_acc(&mut self, other: &Self) {
        *self *= other;
    }

    fn mul_assign_nat(&mut self, n: &Nat) {
        *self *= n;
    }

    fn heap_bytes(&self) -> u64 {
        8 * self.limbs().len() as u64
    }

    fn into_nat(self) -> Nat {
        self
    }
}

/// A widening accumulator: `u64` while it fits, `u128` after one
/// overflow, [`Nat`] after two. See the module docs for the contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Acc {
    /// Fits a machine word.
    Small(u64),
    /// Overflowed `u64` once; fits a double word.
    Wide(u128),
    /// Past fixed width: arbitrary precision.
    Big(Nat),
}

impl Acc {
    /// The exact value as a [`Nat`] without consuming the accumulator.
    pub fn to_nat(&self) -> Nat {
        match self {
            Acc::Small(v) => Nat::from_u64(*v),
            Acc::Wide(v) => Nat::from_u128(*v),
            Acc::Big(n) => n.clone(),
        }
    }

    /// Which tier the value currently occupies: `"u64"`, `"u128"`, or
    /// `"nat"` (diagnostics and tests).
    pub fn tier(&self) -> &'static str {
        match self {
            Acc::Small(_) => "u64",
            Acc::Wide(_) => "u128",
            Acc::Big(_) => "nat",
        }
    }

    #[inline]
    fn promote_to_wide(v: u64) -> Acc {
        note_promotion();
        Acc::Wide(v as u128)
    }

    #[inline]
    fn promote_to_big(v: u128) -> Acc {
        note_promotion();
        Acc::Big(Nat::from_u128(v))
    }
}

impl Accumulator for Acc {
    fn zero() -> Self {
        Acc::Small(0)
    }

    fn one() -> Self {
        Acc::Small(1)
    }

    fn is_zero(&self) -> bool {
        match self {
            Acc::Small(v) => *v == 0,
            Acc::Wide(v) => *v == 0,
            Acc::Big(n) => n.is_zero(),
        }
    }

    #[inline]
    fn add_one(&mut self) {
        match self {
            Acc::Small(v) => match v.checked_add(1) {
                Some(s) => *v = s,
                None => *self = Acc::promote_to_wide(u64::MAX).tap_add_one(),
            },
            Acc::Wide(v) => match v.checked_add(1) {
                Some(s) => *v = s,
                None => *self = Acc::promote_to_big(u128::MAX).tap_add_one(),
            },
            Acc::Big(n) => n.add_assign_u64(1),
        }
    }

    fn add_assign_acc(&mut self, other: &Self) {
        let widened = match (&mut *self, other) {
            (Acc::Small(a), Acc::Small(b)) => match a.checked_add(*b) {
                Some(s) => {
                    *a = s;
                    return;
                }
                None => Acc::Wide(*a as u128 + *b as u128),
            },
            (Acc::Wide(a), Acc::Small(b)) => match a.checked_add(*b as u128) {
                Some(s) => {
                    *a = s;
                    return;
                }
                None => {
                    let mut n = Nat::from_u128(*a);
                    n.add_assign_u64(*b);
                    Acc::Big(n)
                }
            },
            (Acc::Small(a), Acc::Wide(b)) => match b.checked_add(*a as u128) {
                Some(s) => Acc::Wide(s),
                None => {
                    let mut n = Nat::from_u128(*b);
                    n.add_assign_u64(*a);
                    Acc::Big(n)
                }
            },
            (Acc::Wide(a), Acc::Wide(b)) => match a.checked_add(*b) {
                Some(s) => {
                    *a = s;
                    return;
                }
                None => {
                    let mut n = Nat::from_u128(*a);
                    n.add_assign_ref(&Nat::from_u128(*b));
                    Acc::Big(n)
                }
            },
            (Acc::Big(a), b) => {
                a.add_assign_ref(&b.to_nat());
                return;
            }
            (a, Acc::Big(b)) => {
                let mut n = a.to_nat();
                n.add_assign_ref(b);
                Acc::Big(n)
            }
        };
        note_promotion();
        *self = widened;
    }

    fn mul_assign_acc(&mut self, other: &Self) {
        let widened = match (&mut *self, other) {
            (Acc::Small(a), Acc::Small(b)) => match a.checked_mul(*b) {
                Some(p) => {
                    *a = p;
                    return;
                }
                // u64 × u64 always fits u128.
                None => Acc::Wide(*a as u128 * *b as u128),
            },
            (Acc::Wide(a), Acc::Small(b)) => match a.checked_mul(*b as u128) {
                Some(p) => {
                    *a = p;
                    return;
                }
                None => Acc::Big(Nat::from_u128(*a).mul_u64(*b)),
            },
            (Acc::Small(a), Acc::Wide(b)) => match b.checked_mul(*a as u128) {
                Some(p) => Acc::Wide(p),
                None => Acc::Big(Nat::from_u128(*b).mul_u64(*a)),
            },
            (Acc::Wide(a), Acc::Wide(b)) => match a.checked_mul(*b) {
                Some(p) => {
                    *a = p;
                    return;
                }
                None => Acc::Big(Nat::from_u128(*a).mul_ref(&Nat::from_u128(*b))),
            },
            (Acc::Big(a), b) => {
                *a *= &b.to_nat();
                return;
            }
            (a, Acc::Big(b)) => Acc::Big(a.to_nat().mul_ref(b)),
        };
        note_promotion();
        *self = widened;
    }

    fn mul_assign_nat(&mut self, n: &Nat) {
        match n.to_u64() {
            Some(v) => self.mul_assign_acc(&Acc::Small(v)),
            None => match n.to_u128() {
                Some(v) => self.mul_assign_acc(&Acc::Wide(v)),
                None => self.mul_assign_acc(&Acc::Big(n.clone())),
            },
        }
    }

    fn heap_bytes(&self) -> u64 {
        match self {
            Acc::Small(_) => 8,
            Acc::Wide(_) => 16,
            Acc::Big(n) => 8 * n.limbs().len() as u64,
        }
    }

    fn into_nat(self) -> Nat {
        match self {
            Acc::Small(v) => Nat::from_u64(v),
            Acc::Wide(v) => Nat::from_u128(v),
            Acc::Big(n) => n,
        }
    }
}

impl Acc {
    /// `add_one` on a freshly promoted value, returning it (promotion
    /// helper — keeps the overflow arms of [`Accumulator::add_one`]
    /// single-expression).
    fn tap_add_one(mut self) -> Acc {
        // The promoted value holds the pre-overflow maximum; finishing
        // the increment lands exactly one past it.
        match &mut self {
            Acc::Wide(v) => *v += 1,
            Acc::Big(n) => n.add_assign_u64(1),
            Acc::Small(_) => unreachable!("promotion targets are wide"),
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat_of(acc: &Acc) -> Nat {
        acc.to_nat()
    }

    #[test]
    fn increments_cross_u64_boundary_exactly() {
        let mut a = Acc::Small(u64::MAX - 1);
        a.add_one();
        assert_eq!(a, Acc::Small(u64::MAX));
        a.add_one();
        assert_eq!(a.tier(), "u128");
        assert_eq!(nat_of(&a), Nat::from_u128(u64::MAX as u128 + 1));
    }

    #[test]
    fn increments_cross_u128_boundary_exactly() {
        let mut a = Acc::Wide(u128::MAX);
        a.add_one();
        assert_eq!(a.tier(), "nat");
        let mut want = Nat::from_u128(u128::MAX);
        want.add_assign_u64(1);
        assert_eq!(nat_of(&a), want);
    }

    #[test]
    fn multiplication_promotes_and_stays_exact() {
        // (2^40)² = 2^80: past u64, within u128.
        let mut a = Acc::Small(1 << 40);
        a.mul_assign_acc(&Acc::Small(1 << 40));
        assert_eq!(a.tier(), "u128");
        assert_eq!(nat_of(&a), Nat::pow2(80));
        // (2^80)² = 2^160: past u128.
        let b = a.clone();
        a.mul_assign_acc(&b);
        assert_eq!(a.tier(), "nat");
        assert_eq!(nat_of(&a), Nat::pow2(160));
    }

    #[test]
    fn mixed_tier_arithmetic_agrees_with_nat() {
        let samples = [
            Acc::Small(0),
            Acc::Small(3),
            Acc::Small(u64::MAX),
            Acc::Wide(u64::MAX as u128 + 17),
            Acc::Wide(u128::MAX / 3),
            Acc::Big(Nat::pow2(200)),
        ];
        for x in &samples {
            for y in &samples {
                let mut add = x.clone();
                add.add_assign_acc(y);
                assert_eq!(nat_of(&add), {
                    let mut n = x.to_nat();
                    n.add_assign_ref(&y.to_nat());
                    n
                });
                let mut mul = x.clone();
                mul.mul_assign_acc(y);
                assert_eq!(nat_of(&mul), x.to_nat().mul_ref(&y.to_nat()));
            }
        }
    }

    #[test]
    fn mul_assign_nat_picks_the_narrowest_path() {
        let mut a = Acc::Small(7);
        a.mul_assign_nat(&Nat::from_u64(6));
        assert_eq!(a, Acc::Small(42));
        a.mul_assign_nat(&Nat::pow2(100));
        assert_eq!(nat_of(&a), Nat::from_u64(42).mul_ref(&Nat::pow2(100)));
    }

    #[test]
    fn promotion_counter_increases() {
        let before = acc_promotions();
        let mut a = Acc::Small(u64::MAX);
        a.add_one();
        assert!(acc_promotions() > before);
    }

    #[test]
    fn heap_bytes_tracks_tier_footprint() {
        assert_eq!(Acc::Small(5).heap_bytes(), 8);
        assert_eq!(Acc::Wide(u128::MAX).heap_bytes(), 16);
        assert!(Acc::Big(Nat::pow2(200)).heap_bytes() > 16);
    }

    #[test]
    fn accumulator_trait_nat_path_matches() {
        let mut n = <Nat as Accumulator>::one();
        let mut a = <Acc as Accumulator>::one();
        for _ in 0..5 {
            n.add_one();
            a.add_one();
        }
        n.mul_assign_nat(&Nat::from_u64(1000));
        a.mul_assign_nat(&Nat::from_u64(1000));
        assert_eq!(n, a.into_nat());
    }
}
