//! Output oracles: the contracts the repository's own tests pin, applied
//! to every job the benchmark runs. Each returns `Err` with the reason a
//! job's output is wrong.

use swift::dnn::ModelState;

/// Largest parameter difference a recovered data-parallel job may show
/// against the failure-free job: update-undo restores the pre-step state
/// only up to floating-point residue (the envelope
/// `tests/replication_recovery.rs` asserts).
pub const UNDO_ENVELOPE: f32 = 1e-3;

pub type Verdict = Result<(), String>;

/// Every data-parallel replica ends bitwise identical.
pub fn replicas_identical(states: &[ModelState]) -> Verdict {
    match states.iter().position(|s| !s.bit_eq(&states[0])) {
        None if !states.is_empty() => Ok(()),
        None => Err("no final states".into()),
        Some(r) => Err(format!("replica {r} differs bitwise from replica 0")),
    }
}

/// Every final state (replica or stage) is bitwise equal to the
/// reference job's.
pub fn same_as_reference(states: &[ModelState], reference: &[ModelState]) -> Verdict {
    if states.len() != reference.len() {
        return Err(format!(
            "{} final states, reference has {}",
            states.len(),
            reference.len()
        ));
    }
    match (0..states.len()).find(|&i| !states[i].bit_eq(&reference[i])) {
        None => Ok(()),
        Some(i) => Err(format!("state {i} differs bitwise from the reference job")),
    }
}

/// Every final state is finite and within [`UNDO_ENVELOPE`] of the
/// reference job's.
pub fn within_undo_envelope(states: &[ModelState], reference: &ModelState) -> Verdict {
    for (i, s) in states.iter().enumerate() {
        // `max_abs_diff` folds with `f32::max`, which skips NaN.
        if s.entries
            .iter()
            .any(|(_, t)| t.data().iter().any(|x| !x.is_finite()))
        {
            return Err(format!("state {i} holds a non-finite parameter"));
        }
        let d = s.max_abs_diff(reference);
        if d >= UNDO_ENVELOPE {
            return Err(format!(
                "state {i} is {d:e} from the failure-free job (envelope {UNDO_ENVELOPE:e})"
            ));
        }
    }
    Ok(())
}

/// The losses are deterministic: bitwise equal to the reference job's.
pub fn same_losses(losses: &[f32], reference: &[f32]) -> Verdict {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(losses) == bits(reference) {
        Ok(())
    } else {
        Err("losses differ from the reference job".into())
    }
}

/// Training made progress: the mean loss of the last tenth of the
/// iterations is below that of the first tenth.
pub fn loss_decreases(losses: &[f32]) -> Verdict {
    let k = (losses.len() / 10).max(1);
    if losses.len() < 2 * k {
        return Err(format!("only {} losses recorded", losses.len()));
    }
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
    let (first, last) = (mean(&losses[..k]), mean(&losses[losses.len() - k..]));
    if last < first {
        Ok(())
    } else {
        Err(format!("loss did not decrease: {first} -> {last}"))
    }
}

/// A crash job reports that it injected and recovered a failure.
pub fn recovered(flag: bool) -> Verdict {
    if flag {
        Ok(())
    } else {
        Err("crash job reports no recovery".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift::dnn::models::mlp;

    fn state() -> ModelState {
        mlp("oracle", &[6, 16, 16, 3], 5).state()
    }

    /// `s` with one bit flipped: the lowest mantissa bit of the last
    /// parameter of the last tensor, the smallest change a float allows.
    fn flipped(s: &ModelState) -> ModelState {
        let mut s = s.clone();
        let t = &mut s.entries.last_mut().expect("non-empty state").1;
        let x = t.data_mut().last_mut().expect("non-empty tensor");
        *x = f32::from_bits(x.to_bits() ^ 1);
        s
    }

    #[test]
    fn replica_oracle_catches_one_flipped_bit() {
        let s = state();
        assert!(replicas_identical(&[s.clone(), s.clone(), s.clone()]).is_ok());
        assert!(replicas_identical(&[s.clone(), flipped(&s), s.clone()]).is_err());
    }

    #[test]
    fn reference_oracle_catches_one_flipped_bit() {
        let s = state();
        let reference = vec![s.clone(), s.clone()];
        assert!(same_as_reference(&reference, &reference).is_ok());
        assert!(same_as_reference(&[s.clone(), flipped(&s)], &reference).is_err());
        assert!(same_as_reference(&[flipped(&s), s.clone()], &reference).is_err());
    }

    #[test]
    fn envelope_oracle_rejects_drift_and_nan() {
        let s = state();
        assert!(within_undo_envelope(&[flipped(&s)], &s).is_ok());
        let mut far = s.clone();
        far.entries[0].1.data_mut()[0] += 1e-2;
        assert!(within_undo_envelope(&[s.clone(), far], &s).is_err());
        let mut nan = s.clone();
        nan.entries[0].1.data_mut()[0] = f32::NAN;
        assert!(within_undo_envelope(&[nan], &s).is_err());
    }

    #[test]
    fn loss_oracles() {
        let losses: Vec<f32> = (0..20).map(|i| 2.0 - 0.05 * i as f32).collect();
        assert!(loss_decreases(&losses).is_ok());
        let flat = vec![1.0f32; 20];
        assert!(loss_decreases(&flat).is_err());
        assert!(same_losses(&losses, &losses).is_ok());
        let mut one = losses.clone();
        one[7] = f32::from_bits(one[7].to_bits() ^ 1);
        assert!(same_losses(&one, &losses).is_err());
        assert!(recovered(true).is_ok() && recovered(false).is_err());
    }
}
