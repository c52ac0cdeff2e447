shared balance, audited;
lock acct, ledger;
thread main {
  fork depositor;
  fork withdrawer;
  fork auditor;
  fork transferA;
  fork transferB;
  join depositor;
  join withdrawer;
  join auditor;
  join transferA;
  join transferB;
  print balance;
}
thread depositor {
  sync acct {
    balance = balance + 100;
  }
}
thread withdrawer {
  sync acct {
    r = balance;
  }
  if (r >= 50) {
    sync acct {
      balance = r - 50;
    }
  }
}
thread auditor {
  audited = balance;
}
thread transferA {
  sync acct {
    sync ledger {
      balance = balance + 1;
    }
  }
}
thread transferB {
  sync ledger {
    sync acct {
      balance = balance + 2;
    }
  }
}
