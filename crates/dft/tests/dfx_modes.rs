//! The DFX controller's mode exits: the locking key is released only
//! while the controller is in authorized test mode, and hidden again
//! once it resumes its mission.

use seceda_dft::{DfxController, DfxResponse, DfxState};
use seceda_fia::FaultVerdict;

const CREDENTIAL: u64 = 0xC0FFEE;

fn controller() -> DfxController {
    DfxController::new(CREDENTIAL, vec![true, false, true, true], 1)
}

#[test]
fn leaving_test_mode_hides_the_key_again() {
    let mut c = controller();
    assert!(c.enter_test_mode(CREDENTIAL));
    assert_eq!(c.locking_key(), Some(&[true, false, true, true][..]));
    assert!(c.resume_mission());
    assert_eq!(c.state(), DfxState::Mission);
    assert!(
        c.locking_key().is_none(),
        "the key must not outlive test mode"
    );
    // the credential still opens test mode after the exit
    assert!(c.enter_test_mode(CREDENTIAL));
    assert!(c.locking_key().is_some());
}

#[test]
fn recovery_from_a_natural_fault_returns_to_mission() {
    let mut c = controller();
    assert_eq!(
        c.on_fault(FaultVerdict::Natural),
        DfxResponse::RecoverAndResume
    );
    assert_eq!(c.state(), DfxState::Recovering);
    assert!(c.resume_mission());
    assert_eq!(c.state(), DfxState::Mission);
    assert!(c.locking_key().is_none());
}

#[test]
fn lockdown_has_no_exit() {
    let mut c = controller();
    assert!(!c.enter_test_mode(0xBAD));
    assert!(!c.resume_mission(), "lockdown is sticky");
    assert_eq!(c.state(), DfxState::Lockdown);
    assert!(c.locking_key().is_none());
}
