//! The distribution-method abstraction.
//!
//! A *data distribution method* (paper §2) is a function
//! `FD : f_1 × … × f_n → Z_M` assigning each bucket to a device. FX and the
//! baselines (Disk Modulo, GDM, …) all implement [`DistributionMethod`];
//! the optimality checkers, the storage simulator, and the analysis drivers
//! are written against the trait so every method is measured by identical
//! machinery.

use crate::fx::FxDistribution;
use crate::system::SystemConfig;

/// Stack-buffer capacity for the default [`DistributionMethod::device_of_packed`]
/// unpacking path. Systems with more fields (possible only via degenerate
/// `F_i = 1` fields, since the code is capped at 63 bits) fall back to a
/// heap buffer.
const MAX_STACK_FIELDS: usize = 64;

/// A bucket-to-device assignment function `FD : f_1 × … × f_n → Z_M`.
///
/// Implementations must be pure (same bucket ⇒ same device) and cheap —
/// `device_of` sits on the innermost loop of both distribution and
/// analysis.
pub trait DistributionMethod: Send + Sync {
    /// The device (in `0..M`) storing `bucket`.
    ///
    /// `bucket` must be a valid tuple for [`Self::system`]; implementations
    /// may `debug_assert!` validity but skip checks in release builds.
    fn device_of(&self, bucket: &[u64]) -> u64;

    /// The device storing the bucket with packed `code`
    /// (see [`SystemConfig::packed_layout`]; the code equals the bucket's
    /// linear index).
    ///
    /// The default implementation unpacks into a stack buffer and defers
    /// to [`Self::device_of`]; methods whose address arithmetic works
    /// directly on the packed bits (FX, Modulo, GDM, the table-based
    /// baselines) override it to skip the tuple entirely. Must agree with
    /// `device_of` on every valid bucket — the packed-equivalence property
    /// suite enforces this for every in-tree method.
    #[inline]
    fn device_of_packed(&self, code: u64) -> u64 {
        let layout = self.system().packed_layout();
        let n = layout.num_fields();
        if n <= MAX_STACK_FIELDS {
            let mut buf = [0u64; MAX_STACK_FIELDS];
            layout.unpack_into(code, &mut buf[..n]);
            self.device_of(&buf[..n])
        } else {
            self.device_of(&layout.unpack(code))
        }
    }

    /// Computes the devices of a batch of packed codes:
    /// `out[i] = device_of_packed(codes[i])` for every `i`.
    ///
    /// The default implementation is the scalar loop; methods whose
    /// address arithmetic is branch-free (FX, Modulo, GDM, the
    /// binary-CPF allocators) override it with fixed-width lane kernels
    /// that the compiler can autovectorize. Overrides must stay bit-equal
    /// to the scalar path — the batched-equivalence property suite
    /// enforces this for every in-tree method.
    ///
    /// # Panics
    ///
    /// If `codes` and `out` differ in length.
    fn device_of_batch(&self, codes: &[u64], out: &mut [u64]) {
        assert_eq!(codes.len(), out.len(), "device_of_batch buffers must match");
        pmr_rt::obs::ADDR_BATCH_CALLS.add(1);
        for (slot, &code) in out.iter_mut().zip(codes) {
            *slot = self.device_of_packed(code);
        }
    }

    /// Downcast hook: `Some(self)` when this method is an
    /// [`FxDistribution`], letting generic executors dispatch onto the
    /// coset-walk fast inverse mapping without knowing the concrete
    /// type. The default is `None`; wrappers forward it.
    fn as_fx(&self) -> Option<&FxDistribution> {
        None
    }

    /// The system this method distributes.
    fn system(&self) -> &SystemConfig;

    /// Human-readable method name ("FX", "Modulo", "GDM(2,3,5,7,11,13)" …).
    fn name(&self) -> String;

    /// `true` when, for any fixed specification pattern, changing the
    /// *values* of the specified fields only permutes the per-device
    /// response histogram (so its multiset — and hence the largest response
    /// size and strict-optimality — is invariant).
    ///
    /// FX satisfies this via Lemma 1.1 (XOR by a constant permutes `Z_M`);
    /// Disk Modulo and GDM satisfy it because changing specified values
    /// adds a constant modulo `M` (a rotation). Analysis uses this to
    /// evaluate one representative query per pattern instead of all
    /// `∏ F_specified` of them; methods returning `true` wrongly will be
    /// caught by the cross-check property tests in `pmr-analysis`.
    fn histogram_shift_invariant(&self) -> bool {
        false
    }
}

/// Blanket implementation so `&M`, `Box<M>`, `Arc<M>` are methods too.
impl<M: DistributionMethod + ?Sized> DistributionMethod for &M {
    fn device_of(&self, bucket: &[u64]) -> u64 {
        (**self).device_of(bucket)
    }
    fn device_of_packed(&self, code: u64) -> u64 {
        (**self).device_of_packed(code)
    }
    fn device_of_batch(&self, codes: &[u64], out: &mut [u64]) {
        (**self).device_of_batch(codes, out)
    }
    fn as_fx(&self) -> Option<&FxDistribution> {
        (**self).as_fx()
    }
    fn system(&self) -> &SystemConfig {
        (**self).system()
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn histogram_shift_invariant(&self) -> bool {
        (**self).histogram_shift_invariant()
    }
}

impl<M: DistributionMethod + ?Sized> DistributionMethod for Box<M> {
    fn device_of(&self, bucket: &[u64]) -> u64 {
        (**self).device_of(bucket)
    }
    fn device_of_packed(&self, code: u64) -> u64 {
        (**self).device_of_packed(code)
    }
    fn device_of_batch(&self, codes: &[u64], out: &mut [u64]) {
        (**self).device_of_batch(codes, out)
    }
    fn as_fx(&self) -> Option<&FxDistribution> {
        (**self).as_fx()
    }
    fn system(&self) -> &SystemConfig {
        (**self).system()
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn histogram_shift_invariant(&self) -> bool {
        (**self).histogram_shift_invariant()
    }
}

impl<M: DistributionMethod + ?Sized> DistributionMethod for std::sync::Arc<M> {
    fn device_of(&self, bucket: &[u64]) -> u64 {
        (**self).device_of(bucket)
    }
    fn device_of_packed(&self, code: u64) -> u64 {
        (**self).device_of_packed(code)
    }
    fn device_of_batch(&self, codes: &[u64], out: &mut [u64]) {
        (**self).device_of_batch(codes, out)
    }
    fn as_fx(&self) -> Option<&FxDistribution> {
        (**self).as_fx()
    }
    fn system(&self) -> &SystemConfig {
        (**self).system()
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn histogram_shift_invariant(&self) -> bool {
        (**self).histogram_shift_invariant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;

    /// A toy method for exercising the trait plumbing.
    struct FirstField(SystemConfig);

    impl DistributionMethod for FirstField {
        fn device_of(&self, bucket: &[u64]) -> u64 {
            bucket[0] % self.0.devices()
        }
        fn system(&self) -> &SystemConfig {
            &self.0
        }
        fn name(&self) -> String {
            "first-field".into()
        }
    }

    #[test]
    fn trait_objects_and_smart_pointers() {
        let sys = SystemConfig::new(&[4, 4], 2).unwrap();
        let m = FirstField(sys);
        assert_eq!(m.device_of(&[3, 0]), 1);
        let boxed: Box<dyn DistributionMethod> = Box::new(m);
        assert_eq!(boxed.device_of(&[3, 0]), 1);
        assert_eq!(boxed.name(), "first-field");
        assert!(!boxed.histogram_shift_invariant());
        assert!(boxed.as_fx().is_none());
        let by_ref: &dyn DistributionMethod = &*boxed;
        assert_eq!(by_ref.device_of(&[2, 1]), 0);
        let arc: std::sync::Arc<dyn DistributionMethod> =
            std::sync::Arc::new(FirstField(SystemConfig::new(&[4, 4], 2).unwrap()));
        assert_eq!(arc.device_of(&[1, 1]), 1);
    }

    /// The default packed path agrees with `device_of` for a method that
    /// only implements the tuple form.
    #[test]
    fn default_device_of_packed_unpacks() {
        let sys = SystemConfig::new(&[4, 2, 8], 2).unwrap();
        let m = FirstField(sys.clone());
        let mut buf = Vec::new();
        for code in sys.all_indices() {
            sys.decode_index(code, &mut buf);
            assert_eq!(m.device_of_packed(code), m.device_of(&buf));
        }
    }

    /// The default batch path is the scalar loop, including through the
    /// smart-pointer forwards, and rejects mismatched buffers.
    #[test]
    fn default_device_of_batch_is_scalar_loop() {
        let sys = SystemConfig::new(&[4, 2, 8], 2).unwrap();
        let m = FirstField(sys.clone());
        let codes: Vec<u64> = sys.all_indices().collect();
        let mut out = vec![0u64; codes.len()];
        m.device_of_batch(&codes, &mut out);
        for (&code, &dev) in codes.iter().zip(&out) {
            assert_eq!(dev, m.device_of_packed(code));
        }
        let arc: std::sync::Arc<dyn DistributionMethod> = std::sync::Arc::new(m);
        let mut forwarded = vec![0u64; codes.len()];
        arc.device_of_batch(&codes, &mut forwarded);
        assert_eq!(forwarded, out);
        let empty: [u64; 0] = [];
        let mut empty_out: [u64; 0] = [];
        arc.device_of_batch(&empty, &mut empty_out);
    }

    #[test]
    #[should_panic(expected = "device_of_batch buffers must match")]
    fn device_of_batch_rejects_length_mismatch() {
        let sys = SystemConfig::new(&[4, 4], 2).unwrap();
        let m = FirstField(sys);
        let mut out = [0u64; 2];
        m.device_of_batch(&[0, 1, 2], &mut out);
    }
}
