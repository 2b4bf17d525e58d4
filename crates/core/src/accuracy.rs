//! Accuracy classes — the relaxation dimension of ISSUE 9.
//!
//! The source paper's tradeoffs (and every pre-PR-9 implementation in
//! this crate) assume *exact* reads. Hendler–Khattabi–Milani
//! (arXiv 2104.09902) relax the read contract to a bounded
//! multiplicative error and beat the exact lower bounds; the
//! [`ApproxCounter`](crate::counter::ApproxCounter) and
//! [`ApproxMaxRegister`](crate::maxreg::ApproxMaxRegister) faces carry
//! that relaxation. [`AccuracyClass`] names the *kind* of guarantee in
//! registry capability metadata; the factor `k` itself is a constructor
//! parameter, not part of the class.

/// The accuracy guarantee a relaxed implementation provides, as used in
/// registry capability metadata and scenario tables. Exact faces carry
/// no class at all (`accuracy: None` in the registry).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccuracyClass {
    /// k-multiplicative accuracy: a read returning `v` against true
    /// value `V` guarantees `V / k ≤ v ≤ V` — never an overestimate,
    /// an underestimate by at most the configured factor `k`. At
    /// `k = 1` this is exactness.
    KMultiplicative,
}

impl AccuracyClass {
    /// The schema name (`"k_multiplicative"`), as used in registry
    /// capability metadata and scenario accuracy sections.
    pub fn name(self) -> &'static str {
        match self {
            AccuracyClass::KMultiplicative => "k_multiplicative",
        }
    }

    /// Parses a schema name; inverse of [`AccuracyClass::name`].
    pub fn parse(s: &str) -> Option<AccuracyClass> {
        match s {
            "k_multiplicative" => Some(AccuracyClass::KMultiplicative),
            _ => None,
        }
    }

    /// All classes, in schema order.
    pub fn all() -> [AccuracyClass; 1] {
        [AccuracyClass::KMultiplicative]
    }
}

impl std::fmt::Display for AccuracyClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for class in AccuracyClass::all() {
            assert_eq!(AccuracyClass::parse(class.name()), Some(class));
            assert_eq!(format!("{class}"), class.name());
        }
        assert_eq!(AccuracyClass::parse("nope"), None);
    }
}
