//! The security-aware DFX controller (Sec. III-F).
//!
//! Classical DFX combines scan, BIST, and recovery logic. The paper
//! argues the *response policy* must distinguish natural from malicious
//! faults: fastest recovery for the former, re-keying or discontinuation
//! of service for the latter — and that the DFX fabric should also own
//! key management for logic locking (delivering the unlock key only in
//! an authorized state).

use seceda_fia::FaultVerdict;

/// Operating state of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DfxState {
    /// Normal operation.
    Mission,
    /// Authorized test mode (scan/BIST enabled, key accessible).
    Test,
    /// Recovering from a natural fault (retry/repair).
    Recovering,
    /// Attack suspected: secrets zeroized, service halted.
    Lockdown,
}

/// The controller's reaction to an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DfxResponse {
    /// Continue normal operation.
    Proceed,
    /// Retry the failed operation after transparent recovery.
    RecoverAndResume,
    /// Rotate session keys and continue cautiously.
    ReKey,
    /// Halt: zeroize and refuse service.
    Halt,
}

/// The security-aware DFX controller.
#[derive(Debug, Clone)]
pub struct DfxController {
    state: DfxState,
    test_credential: u64,
    locking_key: Vec<bool>,
    rekey_budget: u32,
}

impl DfxController {
    /// Creates a controller holding the locking key, protected by a test
    /// credential.
    pub fn new(test_credential: u64, locking_key: Vec<bool>, rekey_budget: u32) -> Self {
        DfxController {
            state: DfxState::Mission,
            test_credential,
            locking_key,
            rekey_budget,
        }
    }

    /// Current state.
    pub fn state(&self) -> DfxState {
        self.state
    }

    /// Requests entry into test mode. Only the correct credential
    /// succeeds, and never from lockdown.
    pub fn enter_test_mode(&mut self, credential: u64) -> bool {
        if self.state == DfxState::Lockdown {
            return false;
        }
        if credential == self.test_credential {
            self.state = DfxState::Test;
            true
        } else {
            // a wrong credential is itself suspicious
            self.state = DfxState::Lockdown;
            false
        }
    }

    /// Releases the locking key — only in authorized test mode.
    pub fn locking_key(&self) -> Option<&[bool]> {
        if self.state == DfxState::Test {
            Some(&self.locking_key)
        } else {
            None
        }
    }

    /// Feeds a fault verdict (from the discriminator) and returns the
    /// mandated response, updating internal state.
    pub fn on_fault(&mut self, verdict: FaultVerdict) -> DfxResponse {
        if self.state == DfxState::Lockdown {
            return DfxResponse::Halt;
        }
        match verdict {
            FaultVerdict::Undecided => DfxResponse::Proceed,
            FaultVerdict::Natural => {
                self.state = DfxState::Recovering;
                DfxResponse::RecoverAndResume
            }
            FaultVerdict::Malicious => {
                if self.rekey_budget > 0 {
                    self.rekey_budget -= 1;
                    DfxResponse::ReKey
                } else {
                    self.state = DfxState::Lockdown;
                    self.locking_key.iter_mut().for_each(|b| *b = false);
                    DfxResponse::Halt
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> DfxController {
        DfxController::new(0xC0FFEE, vec![true, false, true, true], 2)
    }

    #[test]
    fn natural_faults_recover() {
        let mut c = controller();
        assert_eq!(
            c.on_fault(FaultVerdict::Natural),
            DfxResponse::RecoverAndResume
        );
        assert_eq!(c.state(), DfxState::Recovering);
    }

    #[test]
    fn malicious_faults_escalate_to_lockdown() {
        let mut c = controller();
        assert_eq!(c.on_fault(FaultVerdict::Malicious), DfxResponse::ReKey);
        assert_eq!(c.on_fault(FaultVerdict::Malicious), DfxResponse::ReKey);
        assert_eq!(c.on_fault(FaultVerdict::Malicious), DfxResponse::Halt);
        assert_eq!(c.state(), DfxState::Lockdown);
        // once locked down, everything halts
        assert_eq!(c.on_fault(FaultVerdict::Natural), DfxResponse::Halt);
    }

    #[test]
    fn key_released_only_in_test_mode() {
        let mut c = controller();
        assert!(c.locking_key().is_none());
        assert!(c.enter_test_mode(0xC0FFEE));
        assert_eq!(c.locking_key(), Some(&[true, false, true, true][..]));
    }

    #[test]
    fn wrong_credential_locks_down_and_zeroizes() {
        let mut c = controller();
        assert!(!c.enter_test_mode(0xBAD));
        assert_eq!(c.state(), DfxState::Lockdown);
        assert!(!c.enter_test_mode(0xC0FFEE), "lockdown is sticky");
        assert!(c.locking_key().is_none());
    }

    #[test]
    fn lockdown_zeroizes_the_key() {
        let mut c = DfxController::new(1, vec![true; 4], 0);
        assert_eq!(c.on_fault(FaultVerdict::Malicious), DfxResponse::Halt);
        // even if state were somehow bypassed, the key material is gone
        assert!(c.locking_key.iter().all(|&b| !b));
    }

    #[test]
    fn undecided_proceeds() {
        let mut c = controller();
        assert_eq!(c.on_fault(FaultVerdict::Undecided), DfxResponse::Proceed);
        assert_eq!(c.state(), DfxState::Mission);
    }
}
